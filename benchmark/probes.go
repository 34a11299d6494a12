package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"filaments"
	"filaments/internal/cost"
	"filaments/internal/kernel"
	"filaments/internal/rtnode"
	"filaments/internal/sim"
	"filaments/internal/udptrans"
)

// The layer probes: each runs one layer alone through its exported
// functions, bottom up, so an end-to-end change can be attributed to a
// rung. Probes register services only on private endpoints they open
// themselves, pass only nil and [][]float64 through rtnode.Transport and
// raw bytes through udptrans, and register no wire tag. README.md lists
// every non-filaments symbol they bind to.

// Latency probes take latencySamples timed operations after a discarded
// tenth, so a p99 has 20 samples beyond it. Nanosecond-scale operations
// are timed in batches of batchOps and report the per-operation time.
const (
	latencySamples = 2000
	batchOps       = 1024
	batchSamples   = 200
)

type probes struct {
	scale int
	vals  map[string]float64
}

func (p *probes) samples(n int) int { return max(n/p.scale, 20) }

// latencies times op n times after n/10 discarded warm-up calls.
func latencies(n int, op func()) []float64 {
	for i := 0; i < n/10; i++ {
		op()
	}
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		op()
		out[i] = float64(time.Since(t0))
	}
	return out
}

// batches times n batches of batchOps calls and returns ns per call.
func batches(n int, op func(k int)) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n+n/10; i++ {
		t0 := time.Now()
		for k := 0; k < batchOps; k++ {
			op(k)
		}
		if i >= n/10 {
			out = append(out, float64(time.Since(t0))/batchOps)
		}
	}
	return out
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runProbes runs the whole ladder. scale divides every sample count (the
// smoke run uses it). Each group runs under the repetition deadline, for
// the same reason repetitions do.
func runProbes(scale int) (map[string]float64, error) {
	p := &probes{scale: scale, vals: map[string]float64{}}
	for _, g := range []struct {
		name string
		run  func() error
	}{
		{"rtnode codec", p.codec},
		{"udptrans and rtnode call", p.wire},
		{"dsm hits", p.dsmHits},
		{"dsm faults", p.dsmFaults},
		{"reduce", p.reduce},
		{"dsm release", p.lrcRelease},
		{"filament pools", p.filamentPools},
		{"filament fork/join", p.forkJoin},
		{"sim", p.simEngine},
	} {
		done := make(chan error, 1)
		go func() { done <- g.run() }()
		select {
		case err := <-done:
			if err != nil {
				return p.vals, fmt.Errorf("probe %s: %w", g.name, err)
			}
		case <-time.After(repDeadline):
			return p.vals, fmt.Errorf("probe %s passed the %v deadline", g.name, repDeadline)
		}
	}
	return p.vals, nil
}

func (p *probes) setLatency(name string, ns []float64) { p.vals[name] = median(ns) / 1e3 }

func (p *probes) setP99(name string, ns []float64) { p.vals[name] = tail(ns, 99) / 1e3 }

// --- rtnode: the page codec. ---

// pageRow is one 4 KB DSM page as the builtin tag-8 shape.
func pageRow() [][]float64 {
	rng := rand.New(rand.NewSource(1))
	row := make([]float64, filaments.PageSize/8)
	for i := range row {
		row[i] = rng.Float64()
	}
	return [][]float64{row}
}

func (p *probes) codec() error {
	var v any = pageRow() // boxed once, as payloads reach the transport
	buf := rtnode.AppendPayload(nil, v)
	n := p.samples(batchSamples)
	p.vals["rtnode.codec_page_enc_ns"] = median(batches(n, func(int) { buf = rtnode.AppendPayload(buf[:0], v) }))
	var sink any
	p.vals["rtnode.codec_page_dec_ns"] = median(batches(n, func(int) { sink = rtnode.UnmarshalPayload(buf) }))
	const rounds = 1000
	before := mallocs()
	for i := 0; i < rounds; i++ {
		buf = rtnode.AppendPayload(buf[:0], v)
		sink = rtnode.UnmarshalPayload(buf)
	}
	p.vals["rtnode.codec_page_allocs"] = float64(mallocs()-before) / rounds
	if got := sink.([][]float64); len(got) != 1 || len(got[0]) != filaments.PageSize/8 {
		return fmt.Errorf("codec round trip lost the page")
	}
	return nil
}

// --- udptrans and rtnode: one request/reply on loopback, raw and under
// the node monitor. ---

// Raw echo services sit beyond the lane space rtnode.Transport registers
// kernel services in, so both ladders share one pair of sockets.
const (
	svcSmall = 1
	svcPage  = 2
	rawSmall = rtnode.MaxLanes*rtnode.LaneStride + svcSmall
	rawPage  = rtnode.MaxLanes*rtnode.LaneStride + svcPage
)

// interleaved times each op n times, round-robin, after n/10 discarded
// rounds, so the ops are compared under the same conditions.
func interleaved(n int, ops ...func()) [][]float64 {
	out := make([][]float64, len(ops))
	for i := -n / 10; i < n; i++ {
		for k, op := range ops {
			t0 := time.Now()
			op()
			if i >= 0 {
				out[k] = append(out[k], float64(time.Since(t0)))
			}
		}
	}
	return out
}

// wire times Endpoint.Call (16 B to a 16 B and to a 4 KB echo) and
// Transport.Call (nil to nil and to one 4 KB row) over the same two
// sockets from the same node thread, so their difference is the hand-off
// through the node monitor and the codec, not drift between two probes.
func (p *probes) wire() error {
	epA, err := udptrans.Listen("127.0.0.1:0", udptrans.Options{})
	if err != nil {
		return err
	}
	epB, err := udptrans.Listen("127.0.0.1:0", udptrans.Options{})
	if err != nil {
		epA.Close() //nolint:errcheck // unwinding
		return err
	}
	model := cost.Default()
	nodeA, nodeB := rtnode.NewNode(0, &model), rtnode.NewNode(1, &model)
	trA, trB := rtnode.NewTransport(nodeA, epA), rtnode.NewTransport(nodeB, epB)
	defer func() {
		trA.Close() //nolint:errcheck // probe teardown
		trB.Close() //nolint:errcheck // probe teardown
		for _, nd := range []*rtnode.Node{nodeA, nodeB} {
			nd.Close()
			nd.Wait()
		}
	}()
	peers := []*net.UDPAddr{epA.Addr(), epB.Addr()}
	trA.SetPeers(peers)
	trB.SetPeers(peers)

	small, page := make([]byte, 16), make([]byte, filaments.PageSize)
	echo := func(reply []byte) udptrans.Service {
		return udptrans.Service{Idempotent: true,
			Handler: func(*net.UDPAddr, []byte) ([]byte, bool) { return reply, false }}
	}
	epB.Register(rawSmall, echo(small))
	epB.Register(rawPage, echo(page))
	answer := func(v any, size int) kernel.Service {
		return kernel.Service{Name: "probe", Idempotent: true, Category: kernel.CatData,
			Handler: func(kernel.NodeID, any) (any, int, kernel.Verdict) { return v, size, kernel.Reply }}
	}
	trB.Register(svcSmall, answer(nil, 0))
	trB.Register(svcPage, answer(pageRow(), filaments.PageSize))

	var bad error
	raw := func(svc uint16, want int) func() {
		return func() {
			if reply, err := epA.Call(epB.Addr(), svc, small); err != nil || len(reply) != want {
				bad = fmt.Errorf("echo svc %d: %d bytes, %v", svc, len(reply), err)
			}
		}
	}
	n := p.samples(latencySamples)
	var lat [][]float64
	done := make(chan struct{})
	// The caller is a node thread: it holds node A's monitor while it runs
	// and hands it off around each Transport.Call, as a faulting filament
	// does.
	nodeA.Spawn("probe", func(t kernel.Thread) {
		defer close(done)
		lat = interleaved(n, raw(rawSmall, len(small)), raw(rawPage, len(page)),
			func() {
				if r := trA.Call(t, 1, svcSmall, nil, 0, kernel.CatData); r != nil {
					bad = fmt.Errorf("small call returned %T", r)
				}
			},
			func() {
				if r, ok := trA.Call(t, 1, svcPage, nil, 0, kernel.CatData).([][]float64); !ok || len(r) != 1 {
					bad = fmt.Errorf("page call lost its reply")
				}
			})
	})
	<-done
	p.setLatency("udptrans.rtt_small_us", lat[0])
	p.setP99("udptrans.rtt_small_p99_us", lat[0])
	p.setLatency("udptrans.rtt_page_us", lat[1])
	p.setLatency("rtnode.call_small_us", lat[2])
	p.setP99("rtnode.call_small_p99_us", lat[2])
	p.setLatency("rtnode.call_page_us", lat[3])
	// The hand-off is a fraction of a microsecond under tens of
	// microseconds of tail, so it is the median of the paired differences,
	// not the difference of the two medians.
	handoff := make([]float64, n)
	for i := range handoff {
		handoff[i] = lat[2][i] - lat[0][i]
	}
	p.setLatency("rtnode.handoff_us", handoff)

	// Throughput and allocations of the raw call: one caller, then
	// GOMAXPROCS callers in flight on the one endpoint.
	before, t0 := mallocs(), time.Now()
	for i := 0; i < n; i++ {
		raw(rawSmall, len(small))()
	}
	p.vals["udptrans.calls_per_s_1"] = float64(n) / time.Since(t0).Seconds()
	p.vals["udptrans.allocs_per_call"] = float64(mallocs()-before) / float64(n)
	callers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errs := make([]error, callers)
	t0 = time.Now()
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := epA.Call(epB.Addr(), rawSmall, small); err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	p.vals["udptrans.calls_per_s_n"] = float64(callers*n) / time.Since(t0).Seconds()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return bad
}

// --- dsm, reduce, filament: small UDP clusters, the benchmark's clock
// around one Exec call. ---

// probeCluster runs prog on a fresh UDP cluster and checks it quiesced.
func probeCluster(cfg filaments.UDPConfig, alloc func(cl *filaments.UDPCluster), prog filaments.Program) error {
	cl, err := filaments.NewUDPCluster(cfg)
	if err != nil {
		return err
	}
	if alloc != nil {
		alloc(cl)
	}
	if _, err := cl.Run(prog); err != nil {
		return err
	}
	if n := cl.Outstanding(); n != 0 {
		return fmt.Errorf("%d requests outstanding after Run", n)
	}
	return nil
}

func (p *probes) dsmHits() error {
	var page filaments.Addr
	n := p.samples(batchSamples)
	return probeCluster(filaments.UDPConfig{Nodes: 2, Protocol: filaments.ImplicitInvalidate},
		func(cl *filaments.UDPCluster) { page = cl.AllocOwned(filaments.PageSize, 0) },
		func(rt *filaments.Runtime, e *filaments.Exec) {
			if rt.ID() == 0 {
				word := func(k int) filaments.Addr { return page + filaments.Addr(8*(k%wsPageWords)) }
				for k := 0; k < wsPageWords; k++ {
					e.WriteF64(word(k), float64(k))
				}
				var sum float64
				p.vals["dsm.read_hit_ns"] = median(batches(n, func(k int) { sum += e.ReadF64(word(k)) }))
				p.vals["dsm.write_hit_ns"] = median(batches(n, func(k int) { e.WriteF64(word(k), sum) }))
			}
			e.Barrier()
		})
}

// faultRounds times remote faults between two nodes: each round node 0
// rewrites every word of every page (so a diff is never empty), then
// node 1 reads one word of each. reads holds node 1's fault latencies and
// firstWrites node 0's first write to each page after node 1 held a copy
// — under write-invalidate, an upgrade with one remote copy.
func faultRounds(proto filaments.Protocol, pages, rounds int) (reads, firstWrites []float64, err error) {
	addrs := make([]filaments.Addr, pages)
	err = probeCluster(filaments.UDPConfig{Nodes: 2, Protocol: proto},
		func(cl *filaments.UDPCluster) {
			for i := range addrs {
				addrs[i] = cl.AllocOwned(filaments.PageSize, 0)
			}
		},
		func(rt *filaments.Runtime, e *filaments.Exec) {
			var sum float64
			for r := 0; r <= rounds; r++ { // round 0 warms up and is discarded
				if rt.ID() == 0 {
					for _, a := range addrs {
						t0 := time.Now()
						e.WriteF64(a, float64(r))
						if r > 0 {
							firstWrites = append(firstWrites, float64(time.Since(t0)))
						}
						for k := 1; k < wsPageWords; k++ {
							e.WriteF64(a+filaments.Addr(8*k), float64(r+k))
						}
					}
				}
				e.Barrier()
				if rt.ID() == 1 {
					for _, a := range addrs {
						t0 := time.Now()
						sum += e.ReadF64(a + 8)
						if r > 0 {
							reads = append(reads, float64(time.Since(t0)))
						}
					}
				}
				e.Barrier()
			}
		})
	return reads, firstWrites, err
}

func (p *probes) dsmFaults() error {
	// 100 pages a round keeps a migrating page away from its previous
	// holder for longer than the 2 ms Mirage window.
	const pages = 100
	rounds := p.samples(latencySamples) / pages
	if rounds < 1 {
		rounds = 1
	}
	ii, _, err := faultRounds(filaments.ImplicitInvalidate, pages, rounds)
	if err != nil {
		return err
	}
	p.setLatency("dsm.read_fault_ii_us", ii)
	p.setP99("dsm.read_fault_ii_p99_us", ii)
	wi, upgrades, err := faultRounds(filaments.WriteInvalidate, pages, rounds)
	if err != nil {
		return err
	}
	p.setLatency("dsm.read_fault_wi_us", wi)
	p.setLatency("dsm.write_fault_wi_us", upgrades)
	mig, _, err := faultRounds(filaments.Migratory, pages, rounds)
	if err != nil {
		return err
	}
	p.setLatency("dsm.read_fault_mig_us", mig)
	return nil
}

// lrcRelease times what flushing one dirty page to a remote home adds to
// a barrier: node 1 dirties a page homed on node 0 before every other
// barrier, and the plain barriers in between, on the same cluster under
// the same conditions, are taken out.
func (p *probes) lrcRelease() error {
	var page filaments.Addr
	n := p.samples(latencySamples)
	var flush, plain []float64
	err := probeCluster(filaments.UDPConfig{Nodes: 2, Protocol: filaments.LazyRelease},
		func(cl *filaments.UDPCluster) { page = cl.AllocOwned(filaments.PageSize, 0) },
		func(rt *filaments.Runtime, e *filaments.Exec) {
			e.Barrier() // a start line, as in the writeshare program
			for r := -n / 5; r < 2*n; r++ {
				dirty := r%2 == 0
				if dirty && rt.ID() == 1 {
					e.WriteF64(page+filaments.Addr(8*((r/2+wsPageWords)%wsPageWords)), float64(r))
				}
				t0 := time.Now()
				e.Barrier()
				switch {
				case rt.ID() != 1 || r < 0:
				case dirty:
					flush = append(flush, float64(time.Since(t0)))
				default:
					plain = append(plain, float64(time.Since(t0)))
				}
			}
		})
	p.vals["dsm.lrc_release_us"] = (median(flush) - median(plain)) / 1e3
	return err
}

func (p *probes) reduce() error {
	n := p.samples(latencySamples)
	timeSync := func(nodes int, sync func(e *filaments.Exec)) ([]float64, error) {
		var lat []float64
		err := probeCluster(filaments.UDPConfig{Nodes: nodes}, nil,
			func(rt *filaments.Runtime, e *filaments.Exec) {
				l := latencies(n, func() { sync(e) })
				if rt.ID() == 0 {
					lat = l
				}
			})
		return lat, err
	}
	barrier := func(e *filaments.Exec) { e.Barrier() }
	b2, err := timeSync(2, barrier)
	if err != nil {
		return err
	}
	b4, err := timeSync(4, barrier)
	if err != nil {
		return err
	}
	r4, err := timeSync(4, func(e *filaments.Exec) { e.Reduce(1, filaments.Max) })
	if err != nil {
		return err
	}
	p.setLatency("reduce.barrier_us_2", b2)
	p.setLatency("reduce.barrier_us_4", b4)
	p.setP99("reduce.barrier_p99_us_4", b4)
	p.setLatency("reduce.reduce_us_4", r4)
	return nil
}

func (p *probes) filamentPools() error {
	const rows, cols = 128, 128
	n, sweeps := p.samples(batchSamples), p.samples(100)
	var bad error
	err := probeCluster(filaments.UDPConfig{Nodes: 1}, nil,
		func(rt *filaments.Runtime, e *filaments.Exec) {
			body := func(*filaments.Exec, filaments.Args) {}
			pool := rt.NewPool("probe")
			p.vals["filament.create_ns"] = median(batches(n, func(k int) {
				if k == 0 {
					rt.ResetPools()
				}
				pool.Add(e, body, filaments.Args{int64(k / 32), int64(k % 32)})
			}))
			// The same rows*cols empty filaments twice: as a row-major strip
			// the recogniser inlines, and with each row reversed so it
			// cannot.
			sweep := func(strip bool) float64 {
				rt.ResetPools()
				for i := 0; i < rows; i++ {
					for j := 0; j < cols; j++ {
						col := j
						if !strip {
							col = cols - 1 - j
						}
						pool.Add(e, body, filaments.Args{int64(i), int64(col)})
					}
				}
				if pool.Inlined() != strip {
					bad = fmt.Errorf("pool inlined=%v, want %v", pool.Inlined(), strip)
				}
				return median(latencies(sweeps, func() { rt.RunPools(e) })) / (rows * cols)
			}
			p.vals["filament.run_inlined_ns"] = sweep(true)
			p.vals["filament.run_plain_ns"] = sweep(false)
		})
	if err != nil {
		return err
	}
	return bad
}

// forkJoin times fork+join. A cluster runs one fork/join computation and
// ships one fork per binomial child, so every sample is a fresh cluster.
func (p *probes) forkJoin() error {
	const fnTree, depth = 1, 14
	tasks := float64(int64(1)<<(depth+1) - 1)
	var remote []float64
	tree := func(e *filaments.Exec, a filaments.Args) float64 {
		if a[0] == 0 {
			return 1
		}
		rt := e.Runtime()
		j := rt.NewJoin()
		t0 := time.Now()
		rt.Fork(e, j, fnTree, filaments.Args{a[0] - 1})
		rt.Fork(e, j, fnTree, filaments.Args{a[0] - 1})
		v := j.Wait(e)
		if a[1] == 1 { // the two-node root: its first fork was shipped
			remote = append(remote, float64(time.Since(t0)))
		}
		return v
	}
	run := func(nodes int, root filaments.Args, want float64) (float64, error) {
		var ns float64
		var bad error
		err := probeCluster(filaments.UDPConfig{Nodes: nodes}, nil,
			func(rt *filaments.Runtime, e *filaments.Exec) {
				rt.RegisterFJ(fnTree, tree)
				e.Barrier() // a shipped fork must find the function registered
				t0 := time.Now()
				v := rt.RunForkJoin(e, fnTree, root)
				if rt.ID() == 0 {
					ns = float64(time.Since(t0))
					if v != want {
						bad = fmt.Errorf("fork/join tree returned %v, want %v", v, want)
					}
				}
			})
		if err != nil {
			return 0, err
		}
		return ns, bad
	}
	var local []float64
	for i, n := 0, p.samples(50); i < n+n/10; i++ {
		ns, err := run(1, filaments.Args{depth}, float64(int64(1)<<depth))
		if err != nil {
			return err
		}
		if i >= n/10 {
			local = append(local, ns/tasks)
		}
	}
	p.vals["filament.fj_local_ns"] = median(local)
	n := p.samples(latencySamples)
	for i := 0; i < n+n/10; i++ {
		if _, err := run(2, filaments.Args{1, 1}, 2); err != nil {
			return err
		}
	}
	p.setLatency("filament.fj_remote_us", remote[n/10:])
	return nil
}

// --- sim: the engine that hosts almost all of CI. ---

func (p *probes) simEngine() error {
	events, switches := 2_000_000/p.scale, 200_000/p.scale
	var rates, sleeps []float64
	for s := 0; s < 5; s++ {
		eng := sim.New(1)
		fired := 0
		var chain func()
		chain = func() {
			if fired++; fired < events {
				eng.Schedule(1, chain)
			}
		}
		eng.Schedule(0, chain)
		t0 := time.Now()
		if err := eng.Run(); err != nil {
			return err
		}
		rates = append(rates, float64(events)/time.Since(t0).Seconds())

		eng = sim.New(1)
		eng.Go("probe", func(pr *sim.Proc) {
			for i := 0; i < switches; i++ {
				pr.Sleep(1)
			}
		})
		t0 = time.Now()
		if err := eng.Run(); err != nil {
			return err
		}
		sleeps = append(sleeps, float64(time.Since(t0))/float64(switches))
	}
	p.vals["sim.events_per_s"] = median(rates)
	p.vals["sim.proc_switch_ns"] = median(sleeps)
	return nil
}
