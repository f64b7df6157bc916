package server

import (
	"sync"

	"webdis/internal/wire"
)

// serialSlots is the size of a site's CHT-serial table (1.5 KiB): how
// many of one client's queries can be live at the site before two of
// them count in one slot.
const serialSlots = 64

// serialTable numbers the CHT entries a site creates, per query. The CHT
// needs a serial unique within one query and origin only (the user-site's
// roots and the hybrid fallback already count per query), and serials
// travel as varints on every forwarded DestNode and reported CHTEntry —
// drawn from a site-lifetime counter they made a query's bytes grow with
// the number of queries served before it.
//
// A query counts in slot (hash(user, collector) + num) mod size, so one
// client's consecutive queries walk the slots in turn, and a slot starts
// over at 1 for a query whose num is above every num it has numbered for:
// that query cannot have been here before. Any other newcomer may be a
// query the slot has forgotten (displaced by a newer one while still
// live) and continues above every serial the slot has ever given out. So
// however many queries are live and whatever the table has forgotten, a
// query never gets one serial twice — the worst a crowded table does is
// hand out larger numbers. No entry is ever freed; there is nothing to
// evict and no option.
type serialTable struct {
	mu    sync.Mutex
	slots []serialSlot
}

type serialSlot struct {
	query  uint64 // the query counting here now: client hash<<32 | num
	newest int    // highest QueryID.Num the slot has numbered for
	next   uint32 // last serial given to query
	high   uint32 // at least every serial given to the queries before it
}

func newSerialTable(slots int) *serialTable {
	return &serialTable{slots: make([]serialSlot, slots)}
}

// next returns the serial of the next CHT entry this site creates for id.
func (t *serialTable) next(id wire.QueryID) int64 {
	client := uint32(2166136261) // FNV-1a
	for _, part := range [...]string{id.User, id.Site} {
		for i := 0; i < len(part); i++ {
			client = (client ^ uint32(part[i])) * 16777619
		}
	}
	// Two clients with one hash share counts where their nums meet, which
	// is as safe as any other sharing.
	query := uint64(client)<<32 | uint64(uint32(id.Num))

	t.mu.Lock()
	defer t.mu.Unlock()
	sl := &t.slots[(client+uint32(id.Num))%uint32(len(t.slots))]
	switch {
	case sl.query == query && id.Num <= sl.newest:
		// Still the slot's query.
	case id.Num > sl.newest:
		sl.high, sl.next = max(sl.high, sl.next), 0
	default:
		sl.next = max(sl.high, sl.next)
		sl.high = sl.next
	}
	sl.query, sl.newest = query, max(sl.newest, id.Num)
	sl.next++
	return int64(sl.next)
}
