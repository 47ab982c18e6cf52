// Geo-replication walkthrough on the paper's 5-region AWS topology:
// update visibility across continents, last-writer-wins convergence under
// concurrent conflicting writes, and availability during an inter-DC
// network partition.
//
//	go run ./examples/georeplication
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"wren"
)

var regions = []string{"Virginia", "Oregon", "Ireland", "Mumbai", "Sydney"}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	cluster, err := wren.NewCluster(wren.Config{
		NumDCs:          5,
		NumPartitions:   4,
		UseAWSLatencies: true,
		ClockSkew:       time.Millisecond,
		ApplyInterval:   3 * time.Millisecond,
		GossipInterval:  3 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	if err := visibilityTour(w, cluster); err != nil {
		return err
	}
	if err := convergence(w, cluster); err != nil {
		return err
	}
	return partitionTolerance(w, cluster)
}

// visibilityTour commits in Virginia and times visibility everywhere.
func visibilityTour(w io.Writer, cluster *wren.Cluster) error {
	fmt.Fprintln(w, "== update visibility across regions (committed in Virginia) ==")
	client, err := cluster.Client(0)
	if err != nil {
		return err
	}
	defer client.Close()

	tx, err := client.Begin()
	if err != nil {
		return err
	}
	_ = tx.Write("announcement", []byte("launch!"))
	ct, err := tx.Commit()
	if err != nil {
		return err
	}
	start := time.Now()
	for dc := 0; dc < cluster.NumDCs(); dc++ {
		for {
			var visible bool
			if dc == 0 {
				visible = cluster.LocalUpdateVisible(dc, "announcement", ct)
			} else {
				visible = cluster.RemoteUpdateVisible(dc, "announcement", 0, ct)
			}
			if visible {
				fmt.Fprintf(w, "  %-10s visible after %v\n", regions[dc],
					time.Since(start).Round(time.Millisecond))
				break
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	fmt.Fprintln(w, "  (remote visibility is gated by BiST: an update is remote-visible only")
	fmt.Fprintln(w, "   when updates from ALL remote DCs up to its dependency time arrived)")
	return nil
}

// convergence issues concurrent conflicting writes from every region and
// shows all replicas agree via last-writer-wins.
func convergence(w io.Writer, cluster *wren.Cluster) error {
	fmt.Fprintln(w, "== concurrent conflicting writes converge (last-writer-wins) ==")
	cts := make([]wren.Timestamp, cluster.NumDCs())
	for dc := 0; dc < cluster.NumDCs(); dc++ {
		client, err := cluster.Client(dc)
		if err != nil {
			return err
		}
		tx, err := client.Begin()
		if err != nil {
			client.Close()
			return err
		}
		_ = tx.Write("capital", []byte(regions[dc]))
		ct, err := tx.Commit()
		client.Close()
		if err != nil {
			return err
		}
		cts[dc] = ct
		fmt.Fprintf(w, "  %-10s wrote capital=%q at %v\n", regions[dc], regions[dc], ct)
	}

	// Wait until every write is visible everywhere, then read from each DC.
	deadline := time.Now().Add(30 * time.Second)
	for dc := 0; dc < cluster.NumDCs(); dc++ {
		for src := 0; src < cluster.NumDCs(); src++ {
			for {
				var visible bool
				if src == dc {
					visible = cluster.LocalUpdateVisible(dc, "capital", cts[src])
				} else {
					visible = cluster.RemoteUpdateVisible(dc, "capital", src, cts[src])
				}
				if visible {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("write from DC%d never visible in DC%d", src, dc)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	var agreed string
	for dc := 0; dc < cluster.NumDCs(); dc++ {
		client, err := cluster.Client(dc)
		if err != nil {
			return err
		}
		tx, err := client.Begin()
		if err != nil {
			client.Close()
			return err
		}
		got, err := tx.Read("capital")
		if err != nil {
			client.Close()
			return err
		}
		_, _ = tx.Commit()
		client.Close()
		v := string(got["capital"])
		fmt.Fprintf(w, "  %-10s reads capital=%q\n", regions[dc], v)
		if agreed == "" {
			agreed = v
		} else if v != agreed {
			return fmt.Errorf("DIVERGENCE: %q vs %q", v, agreed)
		}
	}
	fmt.Fprintf(w, "  all regions converged on %q\n", agreed)
	return nil
}

// partitionTolerance cuts Virginia off from Sydney and shows both keep
// serving transactions; replication resumes after healing.
func partitionTolerance(w io.Writer, cluster *wren.Cluster) error {
	fmt.Fprintln(w, "== availability under an inter-DC partition (Virginia <-> Sydney) ==")
	cluster.PartitionInterDCLink(0, 4, true)

	virginia, err := cluster.Client(0)
	if err != nil {
		return err
	}
	defer virginia.Close()
	sydney, err := cluster.Client(4)
	if err != nil {
		return err
	}
	defer sydney.Close()

	start := time.Now()
	tx, err := virginia.Begin()
	if err != nil {
		return err
	}
	_ = tx.Write("status:virginia", []byte("open"))
	ct, err := tx.Commit()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  Virginia committed during partition in %v\n", time.Since(start).Round(time.Millisecond))

	start = time.Now()
	stx, err := sydney.Begin()
	if err != nil {
		return err
	}
	_ = stx.Write("status:sydney", []byte("open"))
	if _, err := stx.Commit(); err != nil {
		return err
	}
	fmt.Fprintf(w, "  Sydney committed during partition in %v\n", time.Since(start).Round(time.Millisecond))

	cluster.PartitionInterDCLink(0, 4, false)
	start = time.Now()
	for !cluster.RemoteUpdateVisible(4, "status:virginia", 0, ct) {
		time.Sleep(time.Millisecond)
	}
	fmt.Fprintf(w, "  after healing, Virginia's write reached Sydney in %v\n",
		time.Since(start).Round(time.Millisecond))
	return nil
}
