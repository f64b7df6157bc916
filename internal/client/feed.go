package client

import (
	"context"
	"sync"
)

// feed is the user-site's one delivery path: the append-only log of a
// query's rows or a watch's deltas, which any number of readers consume
// from its first entry — pull iterators through each, channel pumps
// through stream. It lives under its owner's mutex: the owner appends and
// ends it with that mutex held, and cond waits on it.
type feed[T any] struct {
	cond sync.Cond // L is the owner's mutex; broadcast on append and end
	log  []T
	read int   // the furthest reader's position: the backpressure watermark
	high int   // the most entries ever buffered ahead of read
	done bool  // no entry will follow
	err  error // why the owner ended, if it failed
}

// add appends v and wakes the readers. Callers hold the owner's mutex.
func (f *feed[T]) add(v T) {
	f.log = append(f.log, v)
	f.high = max(f.high, len(f.log)-f.read)
	f.cond.Broadcast()
}

// end ends the feed with err, once. Callers hold the owner's mutex.
func (f *feed[T]) end(err error) {
	if f.done {
		return
	}
	f.done, f.err = true, err
	f.cond.Broadcast()
}

// wake broadcasts to every waiter on the feed's cond: the wake-up of a
// context that ended. Callers do not hold the owner's mutex.
func (f *feed[T]) wake() {
	f.cond.L.Lock()
	f.cond.Broadcast()
	f.cond.L.Unlock()
}

// each yields the entries from the first on, waiting for more until the
// feed ends or ctx does; a ctx that can end must wake the feed when it
// does (see stream). It returns the feed's error once every entry has
// been yielded, and nil when yield or ctx stopped it early. The owner's
// mutex is not held while yield runs.
func (f *feed[T]) each(ctx context.Context, yield func(T) bool) error {
	f.cond.L.Lock()
	for i := 0; ; i++ {
		for i >= len(f.log) && !f.done && ctx.Err() == nil {
			f.cond.Wait()
		}
		if ctx.Err() != nil {
			f.cond.L.Unlock()
			return nil
		}
		if i >= len(f.log) {
			err := f.err
			f.cond.L.Unlock()
			return err
		}
		v := f.log[i]
		f.read = max(f.read, i+1)
		f.cond.L.Unlock()
		if !yield(v) {
			return nil
		}
		f.cond.L.Lock()
	}
}

// stream pumps the feed into a bounded channel from its first entry, and
// closes the channel when the feed ends (after delivering every entry),
// or when ctx or life ends. A consumer that abandons the channel pins the
// pump only until one of them ends; life is the client's (see lifetime).
// A slow consumer never blocks the owner: entries wait in the log.
func (f *feed[T]) stream(ctx, life context.Context) <-chan T {
	ch := make(chan T, 64) // a burst in flight; the backlog waits in the log
	ctx, cancel := context.WithCancel(ctx)
	unlink := context.AfterFunc(life, cancel)
	unwake := context.AfterFunc(ctx, f.wake) // a cond wait cannot select
	go func() {
		defer close(ch)
		defer cancel()
		defer unlink()
		defer unwake()
		f.each(ctx, func(v T) bool {
			select {
			case ch <- v:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	return ch
}

// lifetime returns the context that bounds every pump and watch of a
// client: it ends at cancel (Client.Close), or when done closes
// (Options.Done; nil never does).
func lifetime(done <-chan struct{}) (context.Context, context.CancelFunc) {
	life, cancel := context.WithCancel(context.Background())
	if done != nil {
		go func() {
			select {
			case <-done:
				cancel()
			case <-life.Done():
			}
		}()
	}
	return life, cancel
}
