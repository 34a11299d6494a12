package check

import (
	"strings"
	"testing"

	"filaments"
	"filaments/internal/apps"
	"filaments/internal/dsm"
	"filaments/internal/kernel"
)

// synthetic drives the Checker directly, without a cluster, to pin the
// happens-before algebra down hermetically.
type synthetic struct {
	t     *testing.T
	c     *Checker
	space *dsm.Space
}

func newSynthetic(t *testing.T, nodes int) *synthetic {
	t.Helper()
	// Attach via a tiny simulated cluster so Space.Nodes() reports the
	// cluster size (a bare NewSpace has no DSMs yet).
	c := filaments.New(filaments.Config{Nodes: nodes, Seed: 1})
	chk := New(Config{})
	c.Space().SetMonitor(chk)
	return &synthetic{t: t, c: chk, space: c.Space()}
}

func (s *synthetic) access(node, addr int, write bool) {
	s.c.OnAccess(kernel.NodeID(node), dsm.Addr(addr), 8, write, 0)
}

func (s *synthetic) barrier(epoch int64, nodes ...int) {
	for _, n := range nodes {
		s.c.OnBarrierArrive(kernel.NodeID(n), epoch, 0)
	}
	for _, n := range nodes {
		s.c.OnBarrierRelease(kernel.NodeID(n), epoch, 0)
	}
}

func (s *synthetic) races() []Race { return s.c.Report().Races }

func TestUnsynchronizedWriteReadRaces(t *testing.T) {
	s := newSynthetic(t, 2)
	s.access(0, 0, true)
	s.access(1, 0, false)
	races := s.races()
	if len(races) != 1 {
		t.Fatalf("want 1 race, got %v", races)
	}
	r := races[0]
	if r.First.Node != 0 || !r.First.Write || r.Second.Node != 1 || r.Second.Write {
		t.Fatalf("race does not name both accesses correctly: %v", r)
	}
	if !strings.Contains(r.String(), "write by node 0") || !strings.Contains(r.String(), "read by node 1") {
		t.Fatalf("report should name both accesses: %s", r)
	}
}

func TestBarrierOrdersAccesses(t *testing.T) {
	s := newSynthetic(t, 2)
	s.access(0, 0, true)
	s.barrier(1, 0, 1)
	s.access(1, 0, false)
	s.access(1, 8, true)
	s.barrier(2, 0, 1)
	s.access(0, 8, false)
	if races := s.races(); len(races) != 0 {
		t.Fatalf("barrier-separated accesses must not race: %v", races)
	}
}

func TestWriteAfterUnsynchronizedReadRaces(t *testing.T) {
	s := newSynthetic(t, 2)
	s.barrier(1, 0, 1)
	s.access(1, 0, false)
	s.access(0, 0, true)
	races := s.races()
	if len(races) != 1 {
		t.Fatalf("want 1 write-after-read race, got %v", races)
	}
	if races[0].First.Write || !races[0].Second.Write {
		t.Fatalf("want read-then-write pair, got %v", races[0])
	}
}

func TestOwnershipTransferOrdersAccesses(t *testing.T) {
	s := newSynthetic(t, 2)
	b := s.space.BlockOf(0)
	s.access(0, 0, true)
	s.c.OnPageServe(0, 1, b, true, 0)
	s.c.OnPageInstall(1, 0, b, true, 0)
	s.access(1, 0, true)
	if races := s.races(); len(races) != 0 {
		t.Fatalf("ownership transfer must order the writes: %v", races)
	}
}

func TestReadCopyGrantIsNotAnEdge(t *testing.T) {
	s := newSynthetic(t, 2)
	b := s.space.BlockOf(0)
	s.access(0, 0, true)
	s.c.OnPageServe(0, 1, b, false, 0) // read-only copy
	s.c.OnPageInstall(1, 0, b, false, 0)
	s.access(1, 0, false)
	if races := s.races(); len(races) != 1 {
		t.Fatalf("a read-copy grant must not hide the race: %v", races)
	}
}

func TestTaskAndResultEdges(t *testing.T) {
	s := newSynthetic(t, 2)
	k := dsm.TaskKey{Origin: 0, Join: 1, Fn: 1, Sum: 42}
	s.access(0, 0, true) // parent writes inputs
	s.c.OnTaskShip(0, 1, k, 0)
	s.c.OnTaskStart(1, k, 0)
	s.access(1, 0, false) // child reads inputs
	s.access(1, 8, true)  // child writes result slot
	s.c.OnResultShip(1, 0, k, 0)
	s.c.OnResultDeliver(0, k, 0)
	s.access(0, 8, false) // parent reads result slot after join
	if races := s.races(); len(races) != 0 {
		t.Fatalf("fork and result edges must order parent and child: %v", races)
	}
}

func TestRaceCoalescing(t *testing.T) {
	s := newSynthetic(t, 2)
	for a := 0; a < 80; a += 8 {
		s.access(0, a, true)
	}
	for a := 0; a < 80; a += 8 {
		s.access(1, a, false)
	}
	races := s.races()
	if len(races) != 1 {
		t.Fatalf("same-block same-pair races must coalesce: %v", races)
	}
	if races[0].Count != 10 {
		t.Fatalf("want 10 coalesced word pairs, got %d", races[0].Count)
	}
}

func TestDeclaredRangeViolation(t *testing.T) {
	cl := filaments.New(filaments.Config{Nodes: 2, Seed: 1})
	chk := New(Config{CheckDeclared: true})
	cl.Space().SetMonitor(chk)
	chk.OnNote(0, dsm.Range{Lo: 0, Hi: 64}, true, 0)
	chk.OnAccess(0, 8, 8, true, 0)   // inside: fine
	chk.OnAccess(0, 128, 8, true, 0) // outside every declared range
	chk.OnAccess(1, 128, 8, true, 0) // node 1 declared nothing: not armed
	rep := chk.Report()
	if len(rep.Violations) != 1 || rep.Violations[0].Addr != 128 || rep.Violations[0].Acc.Node != 0 {
		t.Fatalf("want exactly one undeclared-access violation for node 0 addr 128, got %v", rep.Violations)
	}
}

// TestShippedAppsCleanAndSequentiallyConsistent is the tentpole
// acceptance check: all four shipped apps, all three protocols, Mirage
// window on and off, must be race-free, annotation-clean, and
// bitwise-equal to their single-node runs at every quiescent epoch.
func TestShippedAppsCleanAndSequentiallyConsistent(t *testing.T) {
	for _, app := range apps.All() {
		t.Run(app.Name, func(t *testing.T) {
			results := Sweep(app, 4)
			// All three protocols, window on and off where terminable:
			// 3 on-legs always, off-legs per MirageOffSafe.
			if len(results) < 4 {
				t.Fatalf("sweep ran only %d configurations", len(results))
			}
			for _, res := range results {
				name := res.Protocol.String() + "/mirage=" + map[bool]string{true: "on", false: "off"}[res.Mirage]
				if res.Err != nil {
					t.Errorf("%s: oracle structure: %v", name, res.Err)
					continue
				}
				for _, r := range res.Parallel.Races {
					t.Errorf("%s: race: %s", name, r)
				}
				for _, v := range res.Parallel.Violations {
					t.Errorf("%s: violation: %s", name, v)
				}
				for _, m := range res.Mismatches {
					t.Errorf("%s: oracle: %s", name, m)
				}
				if app.UsesDSM && res.Epochs == 0 {
					t.Errorf("%s: oracle compared no epochs for a DSM app", name)
				}
				if res.Parallel.Accesses == 0 && app.UsesDSM {
					t.Errorf("%s: checker observed no accesses", name)
				}
			}
		})
	}
}

// TestRacerDetected is the seeded-race acceptance check: the checker must
// report the race and name both accesses.
func TestRacerDetected(t *testing.T) {
	racer, _ := apps.ByName("racer")
	res := CheckApp(racer, 2, filaments.WriteInvalidate, true)
	if res.Err != nil {
		t.Fatalf("oracle structure: %v", res.Err)
	}
	if len(res.Parallel.Races) == 0 {
		t.Fatalf("the seeded race must be detected")
	}
	r := res.Parallel.Races[0]
	if r.First.Node == r.Second.Node {
		t.Fatalf("race must involve two nodes: %v", r)
	}
	msg := r.String()
	if !strings.Contains(msg, "node 0") || !strings.Contains(msg, "node 1") {
		t.Fatalf("report must name both accesses: %s", msg)
	}
}

// TestOverlapWritersDetectedUnderLRC is the release-consistency seeded-
// race check: two nodes write the same words in one interval, which lazy
// release consistency resolves by merge order (a lost update). The
// flush→merge edges fire at barrier time, after both interval writes, so
// they must not mask the write/write race.
func TestOverlapWritersDetectedUnderLRC(t *testing.T) {
	overlap, _ := apps.ByName("racer-overlap")
	res := CheckApp(overlap, 2, filaments.LazyRelease, true)
	if res.Err != nil {
		t.Fatalf("oracle structure: %v", res.Err)
	}
	if res.Model != ReleaseConsistency {
		t.Fatalf("LazyRelease must map to the release-consistency model, got %v", res.Model)
	}
	if len(res.Parallel.Races) == 0 {
		t.Fatalf("the overlapping writers must be detected under lazy release consistency")
	}
	r := res.Parallel.Races[0]
	if !r.First.Write || !r.Second.Write {
		t.Fatalf("want a write/write pair, got %v", r)
	}
	if r.First.Node == r.Second.Node {
		t.Fatalf("race must involve two nodes: %v", r)
	}
}

// TestLRCCleanAppsReportModel pins ModelOf's mapping.
func TestLRCCleanAppsReportModel(t *testing.T) {
	for _, proto := range []filaments.Protocol{
		filaments.Migratory, filaments.WriteInvalidate, filaments.ImplicitInvalidate,
	} {
		if ModelOf(proto) != SequentialConsistency {
			t.Fatalf("%v must be sequentially consistent", proto)
		}
	}
	if ModelOf(filaments.LazyRelease) != ReleaseConsistency {
		t.Fatalf("LazyRelease must be release-consistent")
	}
}

// TestCentralBarrierQuiesces checks the oracle also works under the
// centralized barrier (the champion fold is global there too).
func TestCentralBarrierQuiesces(t *testing.T) {
	chk := New(Config{CollectDigests: true})
	cl := filaments.New(filaments.Config{Nodes: 3, Seed: 1, CentralBarrier: true, Monitor: chk})
	a := cl.Alloc(8 * 8)
	_, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		if rt.ID() == 0 {
			e.WriteF64(a, 7)
		}
		e.Barrier()
		_ = e.ReadF64(a)
		e.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := chk.Report()
	if len(rep.Epochs) != 2 {
		t.Fatalf("want 2 quiescent epochs under the central barrier, got %d", len(rep.Epochs))
	}
	if len(rep.Races) != 0 {
		t.Fatalf("unexpected races: %v", rep.Races)
	}
}

// TestDisseminationHasNoQuiescentEpochs documents why the oracle does not
// support the dissemination barrier: no node ever holds the global fold.
func TestDisseminationHasNoQuiescentEpochs(t *testing.T) {
	chk := New(Config{CollectDigests: true})
	cl := filaments.New(filaments.Config{Nodes: 4, Seed: 1, DisseminationBarrier: true, Monitor: chk})
	_, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		e.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(chk.Report().Epochs); n != 0 {
		t.Fatalf("dissemination barrier must yield no quiescent epochs, got %d", n)
	}
}
