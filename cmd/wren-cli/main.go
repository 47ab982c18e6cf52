// Command wren-cli is an interactive client for a TCP Wren deployment
// started with cmd/wren-server.
//
//	wren-cli -dcs 1 -partitions 2 -peers 0/0=127.0.0.1:7000,0/1=127.0.0.1:7001
//
// Commands:
//
//	get <key>...            one-shot read-only transaction
//	put <key> <value>...    one-shot write transaction (pairs)
//	del <key>...            one-shot delete transaction (tombstones)
//	scan [<start> [<end> [<limit>]]]
//	                        range scan [start, end) in key order; works
//	                        one-shot or inside an open transaction
//	begin                   start an interactive transaction
//	read <key>...           read within the open transaction
//	write <key> <value>     buffer a write in the open transaction
//	delete <key>            buffer a delete in the open transaction
//	commit                  commit the open transaction
//	abort                   abort the open transaction
//	resolve                 ask again about the last commit left in doubt
//	health                  durability state of every partition in the DC
//	quit
package main

import (
	"bufio"
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"wren/internal/core"
	"wren/internal/peers"
	"wren/internal/transport"
	"wren/internal/transport/tcp"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wren-cli:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("wren-cli", flag.ContinueOnError)
	var (
		dc          = fs.Int("dc", 0, "client's local DC")
		dcs         = fs.Int("dcs", 1, "total number of DCs")
		partitions  = fs.Int("partitions", 1, "partitions per DC")
		peersFlag   = fs.String("peers", "", "comma-separated dc/partition=host:port for the local DC's servers")
		coordinator = fs.Int("coordinator", 0, "coordinator partition (-1 = random per transaction)")
		clientIdx   = fs.Int("client-index", int(os.Getpid()%10000), "unique client index within the DC")
		reqTimeout  = fs.Duration("request-timeout", 10*time.Second, "per-request timeout before a retry or error")
		retries     = fs.Int("retries", 2, "retry attempts after a timed-out request (0 disables retries)")
		retryWait   = fs.Duration("retry-backoff", 50*time.Millisecond, "initial backoff before the first retry (doubles per attempt)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	_ = dcs
	if *reqTimeout <= 0 {
		return fmt.Errorf("-request-timeout must be positive")
	}
	if *retries < 0 {
		return fmt.Errorf("-retries must be non-negative")
	}

	peerMap, err := peers.Parse(*peersFlag)
	if err != nil {
		return err
	}
	if len(peerMap) == 0 {
		return fmt.Errorf("-peers is required")
	}

	net, err := tcp.New(tcp.Config{
		Self:  transport.ClientID(*dc, *clientIdx),
		Peers: peerMap,
	})
	if err != nil {
		return err
	}
	defer net.Close()

	client, err := core.NewClient(core.ClientConfig{
		DC: *dc, ClientIndex: *clientIdx,
		NumPartitions:        *partitions,
		Network:              net,
		CoordinatorPartition: *coordinator,
		RequestTimeout:       *reqTimeout,
		Retry:                core.RetryPolicy{Attempts: *retries, Backoff: *retryWait},
	})
	if err != nil {
		return err
	}
	defer client.Close()

	fmt.Fprintf(out, "wren-cli: connected (dc%d, %d partitions). Type 'help'.\n", *dc, *partitions)
	return repl(client, *partitions, in, out)
}

func repl(client *core.Client, partitions int, in io.Reader, out io.Writer) error {
	var tx, doubt *core.Tx // the open transaction; the last commit left in doubt
	scanner := bufio.NewScanner(in)
	fmt.Fprint(out, "> ")
	for scanner.Scan() {
		fields := strings.Fields(scanner.Text())
		if len(fields) == 0 {
			fmt.Fprint(out, "> ")
			continue
		}
		cmd, rest := strings.ToLower(fields[0]), fields[1:]
		switch cmd {
		case "quit", "exit":
			return nil
		case "help":
			fmt.Fprintln(out, "commands: get put del scan begin read write delete commit abort resolve health quit")
		case "health":
			showHealth(client, partitions, out)
		case "get":
			oneShotRead(client, out, rest)
		case "put":
			doubt = cmp.Or(oneShotWrite(client, out, rest), doubt)
		case "del":
			doubt = cmp.Or(oneShotDelete(client, out, rest), doubt)
		case "scan":
			if tx != nil {
				doScan(tx, out, rest)
				break
			}
			oneShotScan(client, out, rest)
		case "delete":
			if tx == nil {
				fmt.Fprintln(out, "error: no open transaction (use begin, or del)")
				break
			}
			if len(rest) != 1 {
				fmt.Fprintln(out, "usage: delete <key>")
				break
			}
			if err := tx.Delete(rest[0]); err != nil {
				printErr(out, err)
			}
		case "begin":
			if tx != nil {
				fmt.Fprintln(out, "error: transaction already open")
				break
			}
			var err error
			if tx, err = client.Begin(); err != nil {
				printErr(out, err)
				break
			}
			lt, rt := tx.Snapshot()
			fmt.Fprintf(out, "tx %d open (snapshot local=%v remote=%v)\n", tx.ID(), lt, rt)
		case "read":
			if tx == nil {
				fmt.Fprintln(out, "error: no open transaction (use begin, or get)")
				break
			}
			got, err := tx.Read(rest...)
			printRead(out, got, err)
		case "write":
			if tx == nil {
				fmt.Fprintln(out, "error: no open transaction (use begin, or put)")
				break
			}
			if len(rest) != 2 {
				fmt.Fprintln(out, "usage: write <key> <value>")
				break
			}
			if err := tx.Write(rest[0], []byte(rest[1])); err != nil {
				printErr(out, err)
			}
		case "commit":
			if tx == nil {
				fmt.Fprintln(out, "error: no open transaction")
				break
			}
			doubt = cmp.Or(commit(tx, out, "committed"), doubt)
			tx = nil
		case "resolve":
			if doubt == nil {
				fmt.Fprintln(out, "error: no commit in doubt")
				break
			}
			ct, err := doubt.Resolve()
			if errors.Is(err, core.ErrInDoubt) {
				printErr(out, err)
				break
			}
			doubt = nil
			if err != nil {
				printErr(out, err)
				break
			}
			fmt.Fprintf(out, "committed at %v\n", ct)
		case "abort":
			if tx == nil {
				fmt.Fprintln(out, "error: no open transaction")
				break
			}
			err := tx.Abort()
			tx = nil
			if err != nil {
				printErr(out, err)
				break
			}
			fmt.Fprintln(out, "aborted")
		default:
			fmt.Fprintf(out, "unknown command %q (try help)\n", cmd)
		}
		fmt.Fprint(out, "> ")
	}
	return scanner.Err()
}

func oneShotRead(client *core.Client, out io.Writer, keys []string) {
	if len(keys) == 0 {
		fmt.Fprintln(out, "usage: get <key>...")
		return
	}
	tx, err := client.Begin()
	if err != nil {
		printErr(out, err)
		return
	}
	got, err := tx.Read(keys...)
	if err != nil {
		printErr(out, err)
		_ = tx.Abort()
		return
	}
	if _, err := tx.Commit(); err != nil {
		printErr(out, err)
		return
	}
	printRead(out, got, nil)
}

// commit commits tx and prints the outcome under verb. It returns tx when
// the outcome is in doubt — the transaction the resolve command then asks
// about — and nil otherwise, as do the one-shot commands built on it.
func commit(tx *core.Tx, out io.Writer, verb string) *core.Tx {
	ct, err := tx.Commit()
	if err != nil {
		printErr(out, err)
		if errors.Is(err, core.ErrInDoubt) {
			return tx
		}
		return nil
	}
	fmt.Fprintf(out, "%s at %v\n", verb, ct)
	return nil
}

func oneShotWrite(client *core.Client, out io.Writer, kvs []string) *core.Tx {
	if len(kvs) == 0 || len(kvs)%2 != 0 {
		fmt.Fprintln(out, "usage: put <key> <value> [<key> <value>...]")
		return nil
	}
	tx, err := client.Begin()
	if err != nil {
		printErr(out, err)
		return nil
	}
	for i := 0; i < len(kvs); i += 2 {
		if err := tx.Write(kvs[i], []byte(kvs[i+1])); err != nil {
			printErr(out, err)
			_ = tx.Abort()
			return nil
		}
	}
	return commit(tx, out, "committed")
}

// oneShotScan runs a range scan in its own read-only transaction.
func oneShotScan(client *core.Client, out io.Writer, args []string) {
	tx, err := client.Begin()
	if err != nil {
		printErr(out, err)
		return
	}
	doScan(tx, out, args)
	_ = tx.Abort()
}

// doScan parses "scan [<start> [<end> [<limit>]]]" and prints the visible
// keys of [start, end) in order. An omitted end scans to the end of the
// keyspace; a limit caps the output.
func doScan(tx *core.Tx, out io.Writer, args []string) {
	if len(args) > 3 {
		fmt.Fprintln(out, "usage: scan [<start> [<end> [<limit>]]]")
		return
	}
	var start, end string
	limit := 0
	if len(args) > 0 {
		start = args[0]
	}
	if len(args) > 1 {
		end = args[1]
	}
	if len(args) > 2 {
		n, err := strconv.Atoi(args[2])
		if err != nil || n < 0 {
			fmt.Fprintln(out, "usage: scan [<start> [<end> [<limit>]]] (limit must be a non-negative integer)")
			return
		}
		limit = n
	}
	kvs, err := tx.Scan(start, end, limit)
	if err != nil {
		printErr(out, err)
		return
	}
	if len(kvs) == 0 {
		fmt.Fprintln(out, "(no keys)")
		return
	}
	for _, kv := range kvs {
		fmt.Fprintf(out, "%s = %q\n", kv.Key, kv.Value)
	}
}

func oneShotDelete(client *core.Client, out io.Writer, keys []string) *core.Tx {
	if len(keys) == 0 {
		fmt.Fprintln(out, "usage: del <key>...")
		return nil
	}
	tx, err := client.Begin()
	if err != nil {
		printErr(out, err)
		return nil
	}
	for _, k := range keys {
		if err := tx.Delete(k); err != nil {
			printErr(out, err)
			_ = tx.Abort()
			return nil
		}
	}
	return commit(tx, out, "deleted")
}

// showHealth probes every partition server of the client's DC for its
// durability/admission state, so a degraded (read-only) server is
// observable from the command line without a metrics poller.
func showHealth(client *core.Client, partitions int, out io.Writer) {
	for p := 0; p < partitions; p++ {
		readOnly, detail, err := client.Health(p)
		switch {
		case err != nil:
			fmt.Fprintf(out, "p%d: unreachable: %v\n", p, err)
		case readOnly:
			fmt.Fprintf(out, "p%d: READ-ONLY (durability degraded): %s\n", p, detail)
		default:
			fmt.Fprintf(out, "p%d: healthy\n", p)
		}
	}
}

// printErr reports a command failure, classifying the cause so a slow
// server (timeout), a misconfigured peer map (no route), and an in-doubt
// commit read differently at the prompt.
func printErr(out io.Writer, err error) {
	switch {
	case errors.Is(err, core.ErrInDoubt):
		fmt.Fprintln(out, "error (in doubt):", err)
		fmt.Fprintln(out, "  the commit may or may not have landed; 'resolve' asks the coordinator again")
	case errors.Is(err, core.ErrAborted):
		fmt.Fprintln(out, "error (aborted):", err)
		fmt.Fprintln(out, "  the transaction did not commit; safe to retry")
	case errors.Is(err, core.ErrTimeout):
		fmt.Fprintln(out, "error (timeout):", err)
		fmt.Fprintln(out, "  server unresponsive; consider raising -request-timeout or -retries")
	case errors.Is(err, tcp.ErrNoRoute):
		fmt.Fprintln(out, "error (no route):", err)
		fmt.Fprintln(out, "  destination is not in -peers and has never connected; check the peer map")
	default:
		fmt.Fprintf(out, "error: %v\n", err)
	}
}

func printRead(out io.Writer, got map[string][]byte, err error) {
	if err != nil {
		printErr(out, err)
		return
	}
	if len(got) == 0 {
		fmt.Fprintln(out, "(no values)")
		return
	}
	for k, v := range got {
		fmt.Fprintf(out, "%s = %q\n", k, v)
	}
}
