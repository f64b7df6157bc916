package main

import (
	"strings"
	"testing"
	"time"
)

// TestRunsGetDistinctUsers: two runs, one started after the other, query
// under two user names, so the daemons' per-query state of the first run
// never drops the second run's arrivals; both names keep the login name.
func TestRunsGetDistinctUsers(t *testing.T) {
	start := time.Now()
	first, second := runUser(start), runUser(start.Add(time.Millisecond))
	if first == second {
		t.Fatalf("two runs share the user name %q", first)
	}
	login, _, _ := strings.Cut(first, ".")
	if login == "" || !strings.HasPrefix(second, login+".") {
		t.Errorf("user names %q and %q do not share a login name", first, second)
	}
}
