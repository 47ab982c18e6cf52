// Quickstart: start an embedded 2-DC Wren cluster, run a few interactive
// read-write transactions, and watch an update become visible locally and
// remotely.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"wren"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	cluster, err := wren.NewCluster(wren.Config{
		NumDCs:         2,
		NumPartitions:  4,
		InterDCLatency: 20 * time.Millisecond,
		ApplyInterval:  2 * time.Millisecond,
		GossipInterval: 2 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	client, err := cluster.Client(0)
	if err != nil {
		return err
	}
	defer client.Close()

	// A read-write transaction: both writes become visible atomically.
	tx, err := client.Begin()
	if err != nil {
		return err
	}
	if err := tx.Write("greeting", []byte("hello")); err != nil {
		return err
	}
	if err := tx.Write("audience", []byte("world")); err != nil {
		return err
	}
	ct, err := tx.Commit()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "committed greeting+audience at timestamp %v\n", ct)

	// Read-your-writes: the same session sees its writes immediately, even
	// before the cluster-wide stable snapshot catches up (CANToR's
	// client-side cache).
	tx2, err := client.Begin()
	if err != nil {
		return err
	}
	got, err := tx2.Read("greeting", "audience")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "same session reads: %s, %s (nonblocking, blocked=%v)\n",
		got["greeting"], got["audience"], tx2.Blocked())
	if _, err := tx2.Commit(); err != nil {
		return err
	}

	// Watch visibility propagate: first within DC 0 (the local stable
	// snapshot needs one stabilization round), then across the WAN to DC 1.
	start := time.Now()
	for !cluster.LocalUpdateVisible(0, "greeting", ct) {
		time.Sleep(500 * time.Microsecond)
	}
	fmt.Fprintf(w, "visible in DC0 (all partitions) after %v\n", time.Since(start).Round(time.Millisecond))
	for !cluster.RemoteUpdateVisible(1, "greeting", 0, ct) {
		time.Sleep(500 * time.Microsecond)
	}
	fmt.Fprintf(w, "visible in DC1 after %v (WAN latency + stabilization)\n",
		time.Since(start).Round(time.Millisecond))

	// A fresh client in DC 1 now reads the values from its own DC.
	remote, err := cluster.Client(1)
	if err != nil {
		return err
	}
	defer remote.Close()
	tx3, err := remote.Begin()
	if err != nil {
		return err
	}
	got, err = tx3.Read("greeting", "audience")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "DC1 reads: %s, %s\n", got["greeting"], got["audience"])
	if _, err := tx3.Commit(); err != nil {
		return err
	}
	return nil
}
