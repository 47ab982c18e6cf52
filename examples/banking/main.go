// Banking example: concurrent multi-partition transfers audited by a
// read-only checker.
//
// Every transfer debits one account and credits another inside a single
// transaction. Because TCC transactions read from a causal snapshot and
// writes are atomic, an auditor summing all balances never observes money
// created or destroyed mid-transfer — even though accounts live on
// different partitions and transfers run concurrently with the audit.
//
//	go run ./examples/banking
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strconv"
	"time"

	"wren"
)

const (
	accounts       = 16
	initialBalance = 1000
	transfers      = 200
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func accountKey(i int) string { return fmt.Sprintf("account:%04d", i) }

func run(w io.Writer) error {
	cluster, err := wren.NewCluster(wren.Config{
		NumDCs:         1,
		NumPartitions:  8,
		ApplyInterval:  time.Millisecond,
		GossipInterval: time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	teller, err := cluster.Client(0)
	if err != nil {
		return err
	}
	defer teller.Close()

	// Open all accounts in one atomic transaction.
	tx, err := teller.Begin()
	if err != nil {
		return err
	}
	keys := make([]string, accounts)
	for i := 0; i < accounts; i++ {
		keys[i] = accountKey(i)
		_ = tx.Write(keys[i], []byte(strconv.Itoa(initialBalance)))
	}
	ct, err := tx.Commit()
	if err != nil {
		return err
	}
	// Wait until the opening transaction is inside the local stable
	// snapshot, so the auditor (a different session) sees every account.
	for !cluster.LocalUpdateVisible(0, keys[0], ct) {
		time.Sleep(time.Millisecond)
	}
	fmt.Fprintf(w, "opened %d accounts with %d each (total %d) across %d partitions\n",
		accounts, initialBalance, accounts*initialBalance, cluster.NumPartitions())

	// Transfers race with audits.
	transferDone := make(chan error, 1)
	go func() { transferDone <- runTransfers(teller) }()

	auditor, err := cluster.Client(0)
	if err != nil {
		return err
	}
	defer auditor.Close()

	audits := 0
	for {
		select {
		case err := <-transferDone:
			if err != nil {
				return err
			}
			total, err := audit(auditor, keys)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "final audit: total=%d after %d transfers and %d concurrent audits\n",
				total, transfers, audits)
			if total != accounts*initialBalance {
				return fmt.Errorf("MONEY LEAK: total %d != %d", total, accounts*initialBalance)
			}
			return nil
		default:
		}
		total, err := audit(auditor, keys)
		if err != nil {
			return err
		}
		if total != accounts*initialBalance {
			return fmt.Errorf("MONEY LEAK mid-run: total %d != %d (audit %d)",
				total, accounts*initialBalance, audits)
		}
		audits++
	}
}

// runTransfers moves random amounts between random account pairs. Each
// transfer reads both balances and writes both updates in one transaction.
func runTransfers(client wren.Client) error {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < transfers; i++ {
		from, to := rng.Intn(accounts), rng.Intn(accounts)
		if from == to {
			continue
		}
		tx, err := client.Begin()
		if err != nil {
			return err
		}
		got, err := tx.Read(accountKey(from), accountKey(to))
		if err != nil {
			return err
		}
		fromBal, err := strconv.Atoi(string(got[accountKey(from)]))
		if err != nil {
			return fmt.Errorf("parse balance: %w", err)
		}
		toBal, err := strconv.Atoi(string(got[accountKey(to)]))
		if err != nil {
			return fmt.Errorf("parse balance: %w", err)
		}
		amount := rng.Intn(50) + 1
		if fromBal < amount {
			if err := tx.Abort(); err != nil {
				return err
			}
			continue
		}
		_ = tx.Write(accountKey(from), []byte(strconv.Itoa(fromBal-amount)))
		_ = tx.Write(accountKey(to), []byte(strconv.Itoa(toBal+amount)))
		if _, err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// audit sums all balances in one read-only transaction (a causal snapshot).
func audit(client wren.Client, keys []string) (int, error) {
	tx, err := client.Begin()
	if err != nil {
		return 0, err
	}
	got, err := tx.Read(keys...)
	if err != nil {
		return 0, err
	}
	if _, err := tx.Commit(); err != nil {
		return 0, err
	}
	total := 0
	for _, k := range keys {
		v, err := strconv.Atoi(string(got[k]))
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", k, err)
		}
		total += v
	}
	return total, nil
}
