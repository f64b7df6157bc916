// Campus reproduces the paper's Section 5 sample execution end to end:
// the convener query (Example Query 2) over the IISc campus web, printing
// the query's traversal — the paper's Figure 7 — and the final result
// table — the paper's Figure 8.
package main

import (
	"fmt"
	"log"

	"webdis"
)

func main() {
	d, err := webdis.NewDeployment(webdis.Config{
		Web:  webdis.CampusWeb(),
		Exec: webdis.ExecConfig{Trace: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	fmt.Println("DISQL query (the paper's Example Query 2):")
	fmt.Print(webdis.CampusQuery)

	q, err := d.Run(webdis.CampusQuery, webdis.Forever)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Traversal of the query (Figure 7):")
	fmt.Print(d.Journey(q).FormatTraversal())

	fmt.Println("\nResults of the query (Figure 8):")
	for _, table := range q.Results() {
		fmt.Printf("  q%d  %v\n", table.Stage+1, table.Cols)
		for _, row := range table.Rows {
			fmt.Printf("    %q\n", row)
		}
	}

	st := q.Stats()
	fmt.Printf("\nCHT protocol: %d entries entered, %d retired, peak %d live; %d result messages; done in %v\n",
		st.EntriesAdded, st.EntriesRetired, st.PeakLive, st.ResultMsgs, st.Duration.Round(0))
}
