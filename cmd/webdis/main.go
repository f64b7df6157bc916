// Webdis is the WEBDIS user-site client: it submits a DISQL query to a
// deployment of webdisd daemons over TCP, collects results on its own
// listening socket (the paper's Result Collector), and prints the result
// tables after the Current Hosts Table protocol detects completion.
//
// Usage:
//
//	webdis -peers peers.txt -listen 127.0.0.1:7300 -query 'select d.url from ...'
//	webdis -peers peers.txt -listen 127.0.0.1:7300 -file query.disql
//	webdis -peers peers.txt -listen 127.0.0.1:7300 -file query.disql -trace text
//	webdis -explain -query 'select count(*) from ...'
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"os/user"
	"strconv"
	"strings"
	"syscall"
	"time"

	"webdis/internal/client"
	"webdis/internal/disql"
	"webdis/internal/netsim"
	"webdis/internal/plan"
	"webdis/internal/server"
	"webdis/internal/trace"
	"webdis/internal/webserver"
)

func main() {
	peersPath := flag.String("peers", "", "peers file shared with the daemons (required)")
	listen := flag.String("listen", "127.0.0.1:7300", "host:port for the result collector")
	query := flag.String("query", "", "DISQL query text")
	file := flag.String("file", "", "file containing the DISQL query")
	timeout := flag.Duration("timeout", time.Minute, "give up after this long (0 = wait forever)")
	hybrid := flag.Bool("hybrid", false, "run a query server here as the proxy for sites without a daemon: it downloads their documents (needs doc addresses in the peers file)")
	traceMode := flag.String("trace", "", "print the query's causal clone tree after completion: text, dot, or chrome (trace_event JSON)")
	explain := flag.Bool("explain", false, "print the distributed plan (operator trees, pushdown, edge policy) and exit without running the query")
	naive := flag.Bool("naive", false, "turn the cost-based planner off: no pushed-down fragments on root clones, raw rows fold classically (with -explain, show the naive plan)")
	watch := flag.Bool("watch", false, "register the query as a standing continuous query: print the baseline result set, then stream typed add/remove row deltas as the daemons report web mutations (run webdisd with -mutate), until interrupted")
	flag.Parse()

	if (*peersPath == "" && !*explain) || (*query == "" && *file == "") {
		flag.Usage()
		os.Exit(2)
	}
	src := *query
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		src = string(data)
	}
	w, err := disql.Parse(src)
	if err != nil {
		fatal(err)
	}
	if *explain {
		fmt.Print(plan.Explain(w, !*naive))
		return
	}

	tr := netsim.NewTCP()
	sites, err := registerPeers(tr, *peersPath)
	if err != nil {
		fatal(err)
	}

	username := runUser(time.Now())
	var journal *trace.Journal
	if *traceMode != "" {
		switch *traceMode {
		case "text", "dot", "chrome":
		default:
			fatal(fmt.Errorf("unknown -trace mode %q (want text, dot or chrome)", *traceMode))
		}
		// Tracing over TCP: the daemons' journals stay remote, but the
		// span ids they echo on every result message let the client
		// stitch the clone tree from its own collector socket.
		journal = trace.NewJournal("tcp://"+*listen, 0)
	}
	var proxy *server.Server
	if *hybrid {
		// The proxy is an ordinary query server with no documents of its
		// own, listening on an ephemeral port under the run's user name.
		proxy = server.New(username, nil, tr, &server.Metrics{}, server.Options{Journal: journal})
		if err := proxy.Start(); err != nil {
			fatal(err)
		}
		defer proxy.Stop()
	}
	c := client.NewWith(tr, username, "tcp://"+*listen, client.Options{
		Proxy: proxy, Journal: journal, Planner: !*naive,
	})
	defer c.Close()

	fmt.Printf("webdis: %s\n", w)
	if *watch {
		runWatch(c, w, sites)
		return
	}
	start := time.Now()
	q, err := c.Submit(w)
	if err != nil {
		fatal(err)
	}
	if err := q.Wait(*timeout); err != nil {
		fatal(err)
	}
	for _, table := range q.Results() {
		fmt.Printf("\nnode-query q%d: %s\n", table.Stage+1, strings.Join(table.Cols, ", "))
		for _, row := range table.Rows {
			fmt.Printf("  %q\n", row)
		}
	}
	qerr := q.Err() // a qualified answer: say how and where, exit 1 below
	if qerr != nil {
		fmt.Fprintf(os.Stderr, "\nwebdis: %v; unreachable: %s\n", qerr, strings.Join(q.Unreachable(), " "))
	}
	st := q.Stats()
	fmt.Printf("\nfinished in %v (CHT: %d entries, %d result messages)\n",
		time.Since(start).Round(time.Millisecond), st.EntriesAdded, st.ResultMsgs)
	if journal != nil {
		jy := trace.BuildJourney(q.ID().String(), q.TraceEvents())
		switch *traceMode {
		case "text":
			fmt.Printf("\nclone tree (%d spans, complete=%v):\n", len(jy.Spans), jy.Complete())
			fmt.Print(jy.Tree())
		case "dot":
			fmt.Print(jy.DOT())
		case "chrome":
			data, err := jy.ChromeTrace()
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(data))
		}
	}
	if qerr != nil {
		os.Exit(1)
	}
}

// runWatch registers w as a standing query over every peer site, prints
// the baseline, then streams deltas until interrupted.
func runWatch(c *client.Client, w *disql.WebQuery, sites []string) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cancel()
	}()

	wa, err := c.Watch(ctx, w, sites)
	if err != nil {
		fatal(err)
	}
	defer wa.Close()
	rows := 0
	for _, table := range wa.Results() {
		fmt.Printf("\nnode-query q%d baseline: %s\n", table.Stage+1, strings.Join(table.Cols, ", "))
		for _, row := range table.Rows {
			fmt.Printf("  %q\n", row)
		}
		rows += len(table.Rows)
	}
	fmt.Printf("\nwatching %d sites (%d baseline rows); deltas follow, ^C to stop\n", len(sites), rows)
	for delta := range wa.Stream(ctx) {
		fmt.Printf("epoch %d  %-6s  q%d %q\n", delta.Epoch, delta.Op, delta.Stage+1, delta.Row)
	}
	if err := wa.Err(); err != nil {
		fatal(err)
	}
	fmt.Printf("watch closed at epoch %d\n", wa.Epoch())
}

// runUser names the user of a run started at start: the login name and
// the start time in base 36. Sites keep per-query state for the query ids
// a client mints — a site's log table drops an arrival it has logged —
// and every run numbers its queries from 1 at its collector address, so
// a run under the name of an earlier one against the same daemons would
// have its answer dropped as duplicates of the earlier run's.
func runUser(start time.Time) string {
	name := "webdis"
	if u, err := user.Current(); err == nil && u.Username != "" {
		name = u.Username
	}
	return name + "." + strconv.FormatInt(start.UnixNano(), 36)
}

func registerPeers(tr *netsim.TCPTransport, path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var sites []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("bad peers line %q", line)
		}
		sites = append(sites, fields[0])
		tr.Register(server.Endpoint(fields[0]), fields[1])
		if len(fields) > 2 {
			tr.Register(webserver.Endpoint(fields[0]), fields[2])
		}
	}
	return sites, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "webdis:", err)
	os.Exit(1)
}
