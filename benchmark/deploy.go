package main

// A deployment is built the way cmd/wren-server and cmd/wren-cli build one,
// only inside this process: every partition server is a core.Server over its
// own tcp.Network listening on a loopback port, and client sessions are
// core.Clients bound to a pooled connection of a tcp client pool per DC.
// Nothing is simulated and no delay is injected: a message is encoded,
// written to a socket, read and decoded.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"wren/internal/core"
	"wren/internal/store/sst"
	"wren/internal/transport"
	"wren/internal/transport/pool"
	"wren/internal/transport/tcp"
)

// poolBase is the first client-process index used for pool links; session
// ids live in the wire messages, not in node ids, so any free block works.
const poolBase = 1 << 10

type deployment struct {
	s     *spec
	ks    *keyspace
	links int
	dir   string  // data root of durable backends, "" for memory
	tr    *tracer // nil when tracing is off

	addrs   map[transport.NodeID]string
	srvNets [][]*tcp.Network // [dc][partition]
	servers [][]*core.Server
	pools   []*clientPool // [dc]

	nextClient atomic.Int64
}

// clientPool is one DC's shared client connection pool and the link
// networks under it.
type clientPool struct {
	*pool.Pool
	nets []*tcp.Network
}

// newDeployment reserves ports, starts every server and opens the client
// pools. tmp is the directory durable backends write under.
func newDeployment(s *spec, ks *keyspace, links int, tmp string, tr *tracer) (*deployment, error) {
	d := &deployment{s: s, ks: ks, links: links, tr: tr, addrs: make(map[transport.NodeID]string)}
	if s.backend != "memory" {
		dir, err := os.MkdirTemp(tmp, "wren-bench-"+s.name+"-")
		if err != nil {
			return nil, err
		}
		d.dir = dir
	}
	// Every peer map needs all addresses before the first server starts.
	addrs, err := reserveAddrs(s.dcs * s.partitions)
	if err != nil {
		d.close()
		return nil, err
	}
	for dc := 0; dc < s.dcs; dc++ {
		for p := 0; p < s.partitions; p++ {
			d.addrs[transport.ServerID(dc, p)] = addrs[dc*s.partitions+p]
		}
	}
	if err := d.startServers(); err != nil {
		d.close()
		return nil, err
	}
	if err := d.openPools(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// reserveAddrs finds n free loopback ports by binding port 0 n times and
// releasing the ports together, so that no two are the same, for the servers
// to bind again.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// startServers binds every listener before it starts any server: a started
// server dials its peers from ephemeral ports, and one of those could be a
// port reserved for a server that is not listening yet.
func (d *deployment) startServers() error {
	s := d.s
	d.srvNets = make([][]*tcp.Network, s.dcs)
	d.servers = make([][]*core.Server, s.dcs)
	for dc := 0; dc < s.dcs; dc++ {
		d.srvNets[dc] = make([]*tcp.Network, s.partitions)
		d.servers[dc] = make([]*core.Server, s.partitions)
		for p := 0; p < s.partitions; p++ {
			id := transport.ServerID(dc, p)
			tn, err := tcp.New(tcp.Config{Self: id, ListenAddr: d.addrs[id], Peers: d.addrs})
			if err != nil {
				return err
			}
			d.srvNets[dc][p] = tn
		}
	}
	for dc := 0; dc < s.dcs; dc++ {
		for p := 0; p < s.partitions; p++ {
			srv, err := core.NewServer(core.ServerConfig{
				DC: dc, Partition: p, NumDCs: s.dcs, NumPartitions: s.partitions,
				Network:      d.tr.wrapNet(d.srvNets[dc][p]),
				StoreBackend: s.backend,
				DataDir:      d.dir,
				FsyncPolicy:  s.fsync,
				GCInterval:   s.gcInterval,
			})
			if err != nil {
				return err
			}
			d.servers[dc][p] = srv
			srv.Start()
		}
	}
	return nil
}

// openPools builds each DC's pool the way tcp.NewClientPool does — one
// dial-only tcp.Network per link, ids in a block from poolBase, under one
// pool.New — but link by link, because the traced pass wraps each link's
// network and the counters of every link are read afterwards.
func (d *deployment) openPools() error {
	d.pools = make([]*clientPool, d.s.dcs)
	for dc := range d.pools {
		peers := make(map[transport.NodeID]string, d.s.partitions)
		for p := 0; p < d.s.partitions; p++ {
			peers[transport.ServerID(dc, p)] = d.addrs[transport.ServerID(dc, p)]
		}
		cp := &clientPool{}
		d.pools[dc] = cp // close() releases the links opened so far if a later one fails
		eps := make([]pool.Endpoint, d.links)
		for i := range eps {
			id := transport.ClientID(dc, poolBase+i)
			tn, err := tcp.New(tcp.Config{Self: id, Peers: peers})
			if err != nil {
				return err
			}
			cp.nets = append(cp.nets, tn)
			eps[i] = pool.Endpoint{ID: id, Net: d.tr.wrapNet(tn)}
		}
		p, err := pool.New(eps)
		if err != nil {
			return err
		}
		cp.Pool = p
	}
	return nil
}

// close shuts down the demultiplexer and every link network. Safe on a
// half-built pool.
func (cp *clientPool) close() {
	if cp.Pool != nil {
		cp.Pool.Close()
	}
	for _, tn := range cp.nets {
		tn.Close()
	}
}

// session opens a client session in dc pinned to a coordinator partition.
// The returned conn is nil unless tracing is on.
func (d *deployment) session(dc, coordinator int) (*core.Client, *traceConn, error) {
	var conn core.Conn = d.pools[dc].Bind()
	var tc *traceConn
	if d.tr != nil {
		tc = &traceConn{inner: conn, tr: d.tr}
		conn = tc
	}
	c, err := core.NewClient(core.ClientConfig{
		DC: dc, ClientIndex: int(d.nextClient.Add(1)), NumPartitions: d.s.partitions,
		Conn: conn, CoordinatorPartition: coordinator,
	})
	return c, tc, err
}

// preload writes every key (and the markers) once from DC 0, in batches from
// a few concurrent sessions, then waits until a fresh session of every DC
// reads the last batch of each loader: commits of a session are ordered, so
// its last batch being in the snapshot means all of them are.
func (d *deployment) preload() error {
	const loaders, batch = 4, 128
	all := d.ks.keys
	last := make([][]string, loaders)
	errs := make([]error, loaders)
	var wg sync.WaitGroup
	for w := 0; w < loaders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, _, err := d.session(0, w%d.s.partitions)
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			var keys []string
			if w == 0 && d.s.geo {
				keys = append(keys, d.ks.markers[:]...)
			}
			for lo := w * batch; lo < len(all); lo += loaders * batch {
				keys = append(keys, all[lo:min(lo+batch, len(all))]...)
				tx, err := c.Begin()
				if err != nil {
					errs[w] = err
					return
				}
				for _, k := range keys {
					_ = tx.Write(k, value(make([]byte, d.s.valueBytes), preloadSession, 0))
				}
				if _, err := tx.Commit(); err != nil {
					errs[w] = err
					return
				}
				last[w] = append(last[w][:0], keys...)
				keys = keys[:0]
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	var want []string
	for _, l := range last {
		want = append(want, l...)
	}
	for dc := 0; dc < d.s.dcs; dc++ {
		for p := 0; p < d.s.partitions; p++ {
			if err := d.awaitVisible(dc, p, want, 30*time.Second); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
		}
	}
	// An sst engine is still flushing and compacting the load when the last
	// commit is acknowledged, and how many runs that leaves depends on how
	// the loaders raced the flushes. Flush waits for the work under way and
	// writes the memtable out; Compact then folds everything into one run per
	// partition. Every run so starts from the same settled engine, with all
	// reads landing in run files.
	var flushErr atomic.Value
	for dc := range d.servers {
		for _, srv := range d.servers[dc] {
			if e, ok := srv.Store().(*sst.Engine); ok {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := e.Flush(); err != nil {
						flushErr.Store(err)
						return
					}
					e.Compact()
				}()
			}
		}
	}
	wg.Wait()
	if err, _ := flushErr.Load().(error); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	return nil
}

// awaitVisible polls fresh transactions on one coordinator until every key
// reads back a value.
func (d *deployment) awaitVisible(dc, coordinator int, keys []string, limit time.Duration) error {
	c, _, err := d.session(dc, coordinator)
	if err != nil {
		return err
	}
	defer c.Close()
	for deadline := time.Now().Add(limit); ; time.Sleep(time.Millisecond) {
		tx, err := c.Begin()
		if err != nil {
			return err
		}
		got, err := tx.Read(keys...)
		if err != nil {
			return err
		}
		if _, err := tx.Commit(); err != nil {
			return err
		}
		if len(got) == len(keys) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d keys still invisible at dc%d/p%d after %v", len(keys)-len(got), len(keys), dc, coordinator, limit)
		}
	}
}

// reopen hard-stops every server without the shutdown flush and starts the
// deployment again on the same data directories and addresses, with fresh
// client pools. It returns how long it took until a read was served again.
func (d *deployment) reopen() (time.Duration, error) {
	for _, cp := range d.pools {
		cp.close()
	}
	for dc := range d.servers {
		for p, srv := range d.servers[dc] {
			srv.Kill()
			d.srvNets[dc][p].Close()
		}
	}
	start := time.Now()
	if err := d.startServers(); err != nil {
		return 0, err
	}
	if err := d.openPools(); err != nil {
		return 0, err
	}
	if err := d.awaitVisible(0, 0, d.ks.keys[:1], 30*time.Second); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// close stops everything and removes the data directory. Safe on a
// half-built deployment.
func (d *deployment) close() {
	for _, cp := range d.pools {
		if cp != nil {
			cp.close()
		}
	}
	for dc := range d.servers {
		for p, srv := range d.servers[dc] {
			if srv != nil {
				srv.Stop()
			}
			if tn := d.srvNets[dc][p]; tn != nil {
				tn.Close()
			}
		}
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}
