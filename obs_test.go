package filaments_test

import (
	"bytes"
	"sync"
	"testing"

	"filaments"
	"filaments/internal/filament"
)

// pingPongProgram generates steady DSM traffic: every node writes its own
// strip, crosses a barrier, then reads a neighbor's strip (faulting the
// pages over), for several rounds. Shared by the race-hammer and
// trace-determinism tests below.
func pingPongProgram(m filaments.Matrix, rounds int) filaments.Program {
	return func(rt *filaments.Runtime, e *filaments.Exec) {
		id, p := rt.ID(), rt.Nodes()
		rowsPer := m.Rows / p
		lo := id * rowsPer
		for r := 0; r < rounds; r++ {
			for i := lo; i < lo+rowsPer; i++ {
				for j := 0; j < m.Cols; j++ {
					e.WriteF64(m.Addr(i, j), float64(r*1000+i+j))
				}
			}
			e.Barrier()
			peer := (id + 1) % p
			plo := peer * rowsPer
			sum := 0.0
			for i := plo; i < plo+rowsPer; i++ {
				for j := 0; j < m.Cols; j++ {
					sum += e.ReadF64(m.Addr(i, j))
				}
			}
			_ = sum
			e.Barrier()
		}
	}
}

// TestStatsDuringUDPRun reads every node's DSM and Runtime stats — and the
// cluster-wide metric aggregation — from a foreign goroutine while a
// real-time run is moving pages, crossing barriers and sweeping a pool.
// Before the observability layer, DSM.Stats and Runtime.Stats returned
// struct copies without any synchronization with the node monitor, and
// this test failed under -race; the counters are now lock-free atomics, so
// live snapshots are legal from any goroutine. The filament counters are
// published in batches at flush points: a live reader must see them only
// ever grow, and find the exact totals once Run returns.
func TestStatsDuringUDPRun(t *testing.T) {
	const nodes, fils, sweeps = 3, 4000, 3
	c, err := filaments.NewUDPCluster(filaments.UDPConfig{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	m := c.AllocMatrixStriped(3*512, 4) // one page per row-group, striped
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last [nodes]filament.Stats
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < nodes; i++ {
				_ = c.DSM(i).Stats()
				st := c.Runtime(i).Stats()
				if st.FilamentsRun < last[i].FilamentsRun || st.InlinedRun < last[i].InlinedRun ||
					st.FilamentsCreated < last[i].FilamentsCreated {
					t.Errorf("node %d: live filament counters went %+v -> %+v", i, last[i], st)
				}
				last[i] = st
			}
			_ = c.Metrics()
		}
	}()
	pingPong := pingPongProgram(m, 4)
	rep, err := c.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		pingPong(rt, e)
		p := rt.NewPool("strip")
		for k := 0; k < fils; k++ {
			p.Add(e, func(e *filaments.Exec, _ filaments.Args) { e.Compute(20 * filaments.Microsecond) },
				filaments.Args{int64(k / 64), int64(k % 64)})
		}
		for s := 0; s < sweeps; s++ {
			rt.RunPools(e)
		}
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		st := c.Runtime(i).Stats()
		if st.FilamentsCreated != fils || st.FilamentsRun != fils*sweeps || st.InlinedRun != fils*sweeps {
			t.Errorf("node %d: created %d, run %d, inlined %d; want %d, %d, %d",
				i, st.FilamentsCreated, st.FilamentsRun, st.InlinedRun, fils, fils*sweeps, fils*sweeps)
		}
	}
	if len(rep.Metrics) == 0 {
		t.Fatal("UDPReport.Metrics is empty")
	}
	var faults int64
	for _, s := range rep.Metrics {
		if s.Name == "dsm.read_faults" {
			faults = s.Value
		}
	}
	if faults == 0 {
		t.Error("aggregated dsm.read_faults is zero; the program should have faulted pages across nodes")
	}
}

// TestTraceDeterministicAcrossRuns runs the identical simulated program
// twice with tracing enabled and requires byte-identical Chrome trace JSON:
// the tracer is driven by the virtual clock, so a deterministic simulation
// must produce a deterministic trace.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	run := func() []byte {
		tr := filaments.NewTracer()
		c := filaments.New(filaments.Config{Nodes: 4, Seed: 42, Tracer: tr})
		m := c.AllocMatrixStriped(4*512, 4)
		if _, err := c.Run(pingPongProgram(m, 3)); err != nil {
			t.Fatal(err)
		}
		if tr.Len() == 0 {
			t.Fatal("trace is empty: no kernel events recorded")
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("trace output differs between identical runs: %d vs %d bytes", len(a), len(b))
	}
}

// TestReportMetricsMatchStats cross-checks the new aggregated metrics
// against the legacy per-node Stats structs on the simulated binding: the
// summed dsm.* counters must equal the sums over Report.PerNode.
func TestReportMetricsMatchStats(t *testing.T) {
	c := filaments.New(filaments.Config{Nodes: 4, Seed: 7})
	m := c.AllocMatrixStriped(4*512, 4)
	rep, err := c.Run(pingPongProgram(m, 3))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int64{}
	for _, s := range rep.Metrics {
		byName[s.Name] = s.Value
	}
	var reads, writes, served int64
	for _, nr := range rep.PerNode {
		reads += nr.DSM.ReadFaults
		writes += nr.DSM.WriteFaults
		served += nr.DSM.Served
	}
	if byName["dsm.read_faults"] != reads {
		t.Errorf("dsm.read_faults = %d, PerNode sum = %d", byName["dsm.read_faults"], reads)
	}
	if byName["dsm.write_faults"] != writes {
		t.Errorf("dsm.write_faults = %d, PerNode sum = %d", byName["dsm.write_faults"], writes)
	}
	if byName["dsm.served"] != served {
		t.Errorf("dsm.served = %d, PerNode sum = %d", byName["dsm.served"], served)
	}
}
