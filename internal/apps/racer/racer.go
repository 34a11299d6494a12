// Package racer is a deliberately broken DF program: cmd/dfcheck's
// self-test (and the dflint analyzer fixtures mirroring it) must detect
// every bug seeded here. It is not an experiment from the paper.
//
// The dynamic bug: after a barrier, node 0 rewrites a shared array in the
// same phase in which node 1 reads it — no barrier, reduction, or
// fork/join edge orders the two, so whichever interleaving the scheduler
// picks, the accesses race. Under write-invalidate (the app table's
// default) the reader works from a cached read-only copy, so the race is
// also a real stale-value hazard; under migratory every conflicting pair is ordered
// by the page's ownership transfer, which is why the checker documents
// migratory races as undetectable by construction.
//
// The static bugs, one per dflint analyzer seeded below with documented
// allow hatches: a filament body that indexes shared memory through a
// captured loop-shared variable (sharedrange), a filament closure
// capturing an assigned loop variable (loopcapture), and a DSM write
// distributed to filaments without an intervening barrier (barrierphase).
package racer

import (
	"filaments"
)

// Words is the length of the shared array the racing phase touches.
const Words = 64

// Config selects the seeded dynamic bug. The cluster needs at least two
// nodes for either race to exist.
type Config struct {
	// OverlapWriters replaces phase 1's write/read race with a
	// write/write race: nodes 0 and 1 both write every word of the shared
	// array in the same interval. Under lazy release consistency this is
	// exactly the program class the protocol does NOT promise anything
	// for — two twinned writers flush overlapping diffs and the home's
	// merge order picks a winner — so dfcheck must flag it.
	OverlapWriters bool
}

// Setup allocates the shared array on h and returns the seeded-race node
// program with the sum node 1 reads during the racing phase (its value
// depends on the interleaving — that is the point).
func Setup(h filaments.Host, cfg Config) (filaments.Program, *float64) {
	data := h.AllocWith(Words*8, filaments.AllocOpts{})
	racy := new(float64)
	return func(rt *filaments.Runtime, e *filaments.Exec) {
		me := rt.ID()
		d := rt.DSM()
		e.Barrier()
		if cfg.OverlapWriters {
			// Phase 1, write/write variant: both nodes write every word in
			// the same interval. The home's diff-merge order decides each
			// word under lazy release consistency — a real lost-update bug.
			if me <= 1 {
				for i := 0; i < Words; i++ {
					d.WriteF64(e.Thread(), data+filaments.Addr(i*8), float64(me*1000+i))
				}
			}
		} else {
			// Phase 1 — the seeded data race: node 0 writes the array while
			// node 1 sums it, with no synchronization between them.
			if me == 1 {
				for i := 0; i < Words; i++ {
					*racy += e.ReadF64(data + filaments.Addr(i*8))
				}
			}
			if me == 0 {
				for i := 0; i < Words; i++ {
					d.WriteF64(e.Thread(), data+filaments.Addr(i*8), float64(i))
				}
			}
		}
		e.Barrier()
		// Phase 2 — the seeded static bugs, run by node 0 only, after a
		// barrier so they add no further dynamic races.
		if me == 0 {
			// sharedrange: the filament body indexes shared memory through
			// a captured plain int that every filament instance shares,
			// instead of deriving the index from its Args record.
			base := 4
			body := func(e *filaments.Exec, a filaments.Args) {
				_ = e.ReadF64(data + filaments.Addr(base*8)) //dflint:allow sharedrange seeded bug: captured index, dfcheck self-test
			}
			pool := rt.NewPool("seeded")
			pool.Add(e, body, filaments.Args{})
			// loopcapture: i is assigned, not declared, by the for
			// statement, so every closure added to the pool shares the
			// loop's final value.
			var i int
			for i = 0; i < 4; i++ {
				pool.Add(e, func(e *filaments.Exec, a filaments.Args) { //dflint:allow loopcapture seeded bug: assigned loop variable, dfcheck self-test
					_ = e.ReadF64(data + filaments.Addr(i%Words)*8) //dflint:allow sharedrange seeded bug: captured index, dfcheck self-test
				}, filaments.Args{})
			}
			// barrierphase: a DSM write followed by pool distribution with
			// no barrier between the write and the filaments that read it.
			d.WriteF64(e.Thread(), data, 1)
			rt.RunPools(e) //dflint:allow barrierphase seeded bug: write distributed without barrier, dfcheck self-test
		}
		e.Barrier()
	}, racy
}
