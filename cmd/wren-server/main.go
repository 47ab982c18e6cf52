// Command wren-server runs one partition server over real TCP sockets.
//
// A 1-DC, 2-partition deployment on one machine:
//
//	wren-server -dc 0 -partition 0 -dcs 1 -partitions 2 \
//	    -listen 127.0.0.1:7000 -peers 0/0=127.0.0.1:7000,0/1=127.0.0.1:7001 &
//	wren-server -dc 0 -partition 1 -dcs 1 -partitions 2 \
//	    -listen 127.0.0.1:7001 -peers 0/0=127.0.0.1:7000,0/1=127.0.0.1:7001 &
//	wren-cli -dcs 1 -partitions 2 -coordinator 0 \
//	    -peers 0/0=127.0.0.1:7000,0/1=127.0.0.1:7001
//
// The -peers list must name every partition of every DC as dc/partition=addr.
// The -protocol flag selects wren (default), cure or hcure, so the same
// binary can serve as the baseline in networked comparisons.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wren/internal/core"
	"wren/internal/cure"
	"wren/internal/peers"
	"wren/internal/replica"
	"wren/internal/transport"
	"wren/internal/transport/tcp"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wren-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wren-server", flag.ContinueOnError)
	var (
		dc         = fs.Int("dc", 0, "this server's DC index")
		partition  = fs.Int("partition", 0, "this server's partition index")
		dcs        = fs.Int("dcs", 1, "total number of DCs")
		partitions = fs.Int("partitions", 1, "partitions per DC")
		listen     = fs.String("listen", "127.0.0.1:7000", "TCP listen address")
		peersFlag  = fs.String("peers", "", "comma-separated dc/partition=host:port for every server")
		protocol   = fs.String("protocol", "wren", "protocol: wren, cure or hcure")
		applyMs    = fs.Duration("apply-interval", 5*time.Millisecond, "ΔR, idle fallback period of apply/replication and heartbeat pace (commits apply as they are decided)")
		gossipMs   = fs.Duration("gossip-interval", 5*time.Millisecond, "ΔG, idle fallback period of stabilization gossip (Wren's stable times ride the transaction messages)")
		gcEvery    = fs.Duration("gc-interval", 500*time.Millisecond, "GC period (negative disables)")
		storeBack  = fs.String("store-backend", "memory", "storage engine: memory or sst")
		dataDir    = fs.String("data-dir", "", "root data directory for durable backends (server writes under dc<m>-p<n>)")
		fsync      = fs.String("fsync", "", "durable-backend fsync policy (honoured by the transaction log, the one fsync-before-ack point): always, interval (default) or never")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	peerMap, err := peers.Parse(*peersFlag)
	if err != nil {
		return err
	}

	net, err := tcp.New(tcp.Config{
		Self:       transport.ServerID(*dc, *partition),
		ListenAddr: *listen,
		Peers:      peerMap,
	})
	if err != nil {
		return err
	}
	defer net.Close()

	cfg := replica.Config{
		DC: *dc, Partition: *partition,
		NumDCs: *dcs, NumPartitions: *partitions,
		Network:        net,
		ApplyInterval:  *applyMs,
		GossipInterval: *gossipMs,
		GCInterval:     *gcEvery,
		StoreBackend:   *storeBack,
		DataDir:        *dataDir,
		FsyncPolicy:    *fsync,
	}
	var stop func()
	switch strings.ToLower(*protocol) {
	case "wren":
		srv, err := core.NewServer(cfg)
		if err != nil {
			return err
		}
		srv.Start()
		stop = srv.Stop
	case "cure", "hcure":
		cfg.UseHLC = strings.ToLower(*protocol) == "hcure"
		srv, err := cure.NewServer(cfg)
		if err != nil {
			return err
		}
		srv.Start()
		stop = srv.Stop
	default:
		return fmt.Errorf("unknown protocol %q", *protocol)
	}

	fmt.Printf("wren-server: %s server dc%d/p%d listening on %s (%d DCs x %d partitions)\n",
		*protocol, *dc, *partition, net.Addr(), *dcs, *partitions)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("wren-server: shutting down")
	stop()
	return nil
}
