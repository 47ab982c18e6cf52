// Social network scenarios from the paper's motivation (§II-C):
//
//  1. The photo-album anomaly: Alice removes Bob from her album's access
//     list and then adds a private photo. Because transactions read from a
//     causal snapshot, Bob can never observe the new photo together with
//     the old permissions.
//
//  2. Symmetric friendship: becoming friends writes both adjacency entries
//     in one transaction; atomic visibility means no observer ever sees a
//     one-directional friendship.
//
//     go run ./examples/social
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
		InterDCLatency: 15 * time.Millisecond,
		ApplyInterval:  2 * time.Millisecond,
		GossipInterval: 2 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	if err := photoAlbumScenario(w, cluster); err != nil {
		return err
	}
	return friendshipScenario(w, cluster)
}

// photoAlbumScenario replays COPS' classic anomaly and shows it cannot
// happen under TCC.
func photoAlbumScenario(w io.Writer, cluster *wren.Cluster) error {
	fmt.Fprintln(w, "== photo album (causal snapshot prevents the ACL anomaly) ==")
	alice, err := cluster.Client(0)
	if err != nil {
		return err
	}
	defer alice.Close()
	bob, err := cluster.Client(1)
	if err != nil {
		return err
	}
	defer bob.Close()

	// Initial state: Bob is on the ACL; the album has one public photo.
	tx, err := alice.Begin()
	if err != nil {
		return err
	}
	_ = tx.Write("album:acl", []byte("alice,bob"))
	_ = tx.Write("album:photos", []byte("beach.jpg"))
	ct, err := tx.Commit()
	if err != nil {
		return err
	}
	waitRemoteVisible(cluster, 1, "album:acl", 0, ct)

	// Alice removes Bob, THEN adds a private photo (two transactions; the
	// second causally depends on the first).
	tx, err = alice.Begin()
	if err != nil {
		return err
	}
	_ = tx.Write("album:acl", []byte("alice"))
	if _, err := tx.Commit(); err != nil {
		return err
	}
	tx, err = alice.Begin()
	if err != nil {
		return err
	}
	_ = tx.Write("album:photos", []byte("beach.jpg,private.jpg"))
	ctPhoto, err := tx.Commit()
	if err != nil {
		return err
	}

	// Bob polls from DC 1. Under causal consistency, whenever he sees the
	// private photo, he must also see the restricted ACL.
	deadline := time.Now().Add(10 * time.Second)
	for {
		btx, err := bob.Begin()
		if err != nil {
			return err
		}
		got, err := btx.Read("album:acl", "album:photos")
		if err != nil {
			return err
		}
		if _, err := btx.Commit(); err != nil {
			return err
		}
		photos, acl := string(got["album:photos"]), string(got["album:acl"])
		if containsPrivate(photos) {
			if acl != "alice" {
				return fmt.Errorf("ANOMALY: Bob saw %q with stale ACL %q", photos, acl)
			}
			fmt.Fprintf(w, "Bob sees %q only together with ACL %q — anomaly impossible\n", photos, acl)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("photo never became visible in DC1")
		}
		_ = ctPhoto
		time.Sleep(2 * time.Millisecond)
	}
}

// friendshipScenario shows atomic multi-item writes (both friendship edges
// or neither).
func friendshipScenario(w io.Writer, cluster *wren.Cluster) error {
	fmt.Fprintln(w, "== symmetric friendship (atomic multi-partition writes) ==")
	writer, err := cluster.Client(0)
	if err != nil {
		return err
	}
	defer writer.Close()
	observer, err := cluster.Client(0)
	if err != nil {
		return err
	}
	defer observer.Close()

	carolKey, daveKey := "friends:carol", "friends:dave"
	fmt.Fprintf(w, "(%q on partition %d, %q on partition %d)\n",
		carolKey, wren.PartitionOf(carolKey, cluster.NumPartitions()),
		daveKey, wren.PartitionOf(daveKey, cluster.NumPartitions()))

	done := make(chan error, 1)
	go func() {
		// Carol and Dave befriend and un-befriend repeatedly.
		for i := 0; i < 50; i++ {
			state := []byte("yes")
			if i%2 == 1 {
				state = []byte("no")
			}
			tx, err := writer.Begin()
			if err != nil {
				done <- err
				return
			}
			_ = tx.Write(carolKey, state)
			_ = tx.Write(daveKey, state)
			if _, err := tx.Commit(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	checks := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "checked %d snapshots: friendship always symmetric\n", checks)
			return nil
		default:
		}
		tx, err := observer.Begin()
		if err != nil {
			return err
		}
		got, err := tx.Read(carolKey, daveKey)
		if err != nil {
			return err
		}
		if _, err := tx.Commit(); err != nil {
			return err
		}
		c, d := string(got[carolKey]), string(got[daveKey])
		if c != d {
			return fmt.Errorf("ASYMMETRY: carol=%q dave=%q", c, d)
		}
		checks++
	}
}

func containsPrivate(photos string) bool {
	return len(photos) > len("beach.jpg")
}

func waitRemoteVisible(cluster *wren.Cluster, dc int, key string, srcDC int, ct wren.Timestamp) {
	for !cluster.RemoteUpdateVisible(dc, key, srcDC, ct) {
		time.Sleep(time.Millisecond)
	}
}
