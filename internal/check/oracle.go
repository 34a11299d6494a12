package check

import (
	"fmt"

	"filaments"
	"filaments/internal/apps"
)

// This file is the sequential-consistency oracle: it runs an app's DF
// program twice in the simulator — once on p nodes, once on one node —
// with digest collection on, and asserts the shared pages are bitwise
// equal at every quiescent barrier epoch. The comparison is meaningful
// because the allocator's block layout is node-count-invariant (Alloc
// advances the brk identically regardless of ownership, and striping only
// changes owners), and because OnEpochQuiesced fires at the reduction
// fold, when every node has arrived and no node has resumed, so exactly
// one owner holds each block.
//
// The tournament and centralized barriers both have that global instant;
// the dissemination barrier does not (no node ever holds the whole fold),
// so the oracle reports zero comparable epochs there and the caller must
// treat Dissemination as unsupported.
//
// The oracle generalizes across memory models. Under the single-writer
// protocols (sequential consistency) the digests are valid because exactly
// one owner holds each block. Under lazy release consistency (a release-
// consistency model) the home never loses ownership, every writer flushes
// its interval diffs before arriving, and the reducer's Quiesce covers the
// flush acks — so at the fold the home frames hold every merge and the
// same digest comparison applies. The RC oracle additionally asserts that
// no unflushed multi-writer state (dirty lists, twins) survives into the
// quiescent instant: see EpochDigest.Unflushed.

// Model is the memory model a protocol promises, which picks the oracle
// variant CheckApp runs.
type Model int

const (
	// SequentialConsistency: single-writer protocols — one owner per
	// block, every access sees the latest write.
	SequentialConsistency Model = iota
	// ReleaseConsistency: writes are only guaranteed visible at the next
	// synchronization point; correct for data-race-free barrier programs.
	ReleaseConsistency
)

func (m Model) String() string {
	if m == ReleaseConsistency {
		return "release-consistency"
	}
	return "sequential-consistency"
}

// ModelOf maps a protocol to the memory model it implements.
func ModelOf(p filaments.Protocol) Model {
	if p == filaments.LazyRelease {
		return ReleaseConsistency
	}
	return SequentialConsistency
}

// Mismatch is one block whose content differs between the parallel and
// sequential runs at a quiescent epoch.
type Mismatch struct {
	Epoch int64
	Block int
	Par   uint64
	Seq   uint64
}

func (m Mismatch) String() string {
	return fmt.Sprintf("epoch %d block %d: parallel digest %#x != sequential digest %#x",
		m.Epoch, m.Block, m.Par, m.Seq)
}

// CompareEpochs diffs two runs' per-epoch digests. It returns the
// mismatches, the number of epochs compared, and an error if the epoch
// sequences themselves disagree (different barrier structure).
func CompareEpochs(par, seq []EpochDigest) ([]Mismatch, int, error) {
	if len(par) != len(seq) {
		return nil, 0, fmt.Errorf("check: %d quiescent epochs in parallel run, %d in sequential run", len(par), len(seq))
	}
	var out []Mismatch
	for i := range par {
		if par[i].Epoch != seq[i].Epoch {
			return nil, 0, fmt.Errorf("check: epoch sequence diverges at %d: %d vs %d", i, par[i].Epoch, seq[i].Epoch)
		}
		if len(par[i].Digests) != len(seq[i].Digests) {
			return nil, 0, fmt.Errorf("check: epoch %d: %d blocks in parallel run, %d in sequential run",
				par[i].Epoch, len(par[i].Digests), len(seq[i].Digests))
		}
		for b := range par[i].Digests {
			if par[i].Digests[b] != seq[i].Digests[b] {
				out = append(out, Mismatch{Epoch: par[i].Epoch, Block: b, Par: par[i].Digests[b], Seq: seq[i].Digests[b]})
			}
		}
	}
	return out, len(par), nil
}

// run executes a table application's DF program in the simulator at its
// Check size — small, because the checker observes every typed access and
// trades scale for exhaustive coverage; the program itself is the shipped
// one, unchanged — with mon attached. window 0 keeps the model's Mirage
// window, negative disables it.
func run(app *apps.App, nodes int, proto filaments.Protocol, window filaments.Duration, mon filaments.Monitor) {
	cl := filaments.New(filaments.Config{
		Nodes: nodes, Seed: 1,
		Protocol: proto, Stealing: app.Stealing || app.CheckStealing, WakeFront: app.WakeFront,
		Monitor: mon, MirageWindow: window,
	})
	prog, _ := app.Setup(cl, app.Check)
	if _, err := cl.Run(prog); err != nil {
		panic(err)
	}
}

// Result is the outcome of checking one app under one configuration.
type Result struct {
	App      string
	Nodes    int
	Protocol filaments.Protocol
	Model    Model
	Mirage   bool
	// Parallel is the p-node run's report.
	Parallel *Report
	// Epochs is how many quiescent epochs the oracle compared.
	Epochs int
	// Mismatches are oracle failures (parallel vs sequential digests).
	Mismatches []Mismatch
	// Err reports structural oracle failures (epoch sequences diverged).
	Err error
}

// Ok reports whether the run was race-free and oracle-clean.
func (r *Result) Ok() bool {
	return r.Err == nil && len(r.Mismatches) == 0 &&
		len(r.Parallel.Races) == 0 && len(r.Parallel.Violations) == 0
}

// Sweep checks app on nodes under every protocol, with the Mirage window
// on and — where the table row declares it safe — off. With the window
// off, migratory read-sharing (and any write false sharing, e.g. strips
// that don't align to page boundaries) hands the page back and forth
// forever before the woken thread can touch it — the livelock the window
// exists to prevent — so those legs of the sweep are skipped by design,
// not by oversight.
func Sweep(app *apps.App, nodes int) []*Result {
	var out []*Result
	for _, proto := range []filaments.Protocol{
		filaments.Migratory, filaments.WriteInvalidate, filaments.ImplicitInvalidate,
		filaments.LazyRelease,
	} {
		for _, mirage := range []bool{true, false} {
			if !mirage && app.MirageOffSafe != nil && !app.MirageOffSafe(proto, nodes) {
				continue
			}
			out = append(out, CheckApp(app, nodes, proto, mirage))
		}
	}
	return out
}

// CheckApp runs app on nodes under proto (with the Mirage window on or
// off), with the happens-before checker attached, then replays it on a
// single node and compares per-epoch digests.
func CheckApp(app *apps.App, nodes int, proto filaments.Protocol, mirage bool) *Result {
	window := filaments.Duration(0)
	if !mirage {
		window = -1
	}
	par := New(Config{CollectDigests: true, CheckDeclared: true})
	run(app, nodes, proto, window, par)
	seq := New(Config{CollectDigests: true})
	run(app, 1, proto, window, seq)
	res := &Result{App: app.Name, Nodes: nodes, Protocol: proto, Model: ModelOf(proto),
		Mirage: mirage, Parallel: par.Report()}
	res.Mismatches, res.Epochs, res.Err = CompareEpochs(res.Parallel.Epochs, seq.Report().Epochs)
	if res.Err == nil && res.Model == ReleaseConsistency {
		// RC obligation: every interval's diffs reached their homes before
		// the fold. A nonzero count means a release was skipped or a flush
		// escaped Quiesce — the digests above would be comparing a frame
		// that is still missing merges.
		for _, ed := range res.Parallel.Epochs {
			if ed.Unflushed != 0 {
				res.Err = fmt.Errorf("check: epoch %d: %d block(s) with unflushed multi-writer state at the quiescent instant",
					ed.Epoch, ed.Unflushed)
				break
			}
		}
	}
	return res
}
