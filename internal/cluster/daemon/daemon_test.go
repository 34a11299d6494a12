package daemon

import (
	"strings"
	"sync"
	"testing"
	"time"

	"filaments/internal/cluster"
)

// fastPolicy makes failure detection visible inside a test's patience.
func fastPolicy() cluster.Policy {
	return cluster.Policy{
		SuspectAfter: int64(300 * time.Millisecond),
		DeadAfter:    int64(900 * time.Millisecond),
	}
}

func startCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return co
}

// waitState polls until addr reaches want in the coordinator's view.
func waitState(t *testing.T, co *Coordinator, addr string, want cluster.State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m, ok := co.View().Find(addr); ok && m.State == want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	m, ok := co.View().Find(addr)
	t.Fatalf("member %q never reached %v (now %v, present %v)", addr, want, m.State, ok)
}

// TestAgentsJoinBeatLeaveAndTimeOut walks two agents through the whole
// membership lifecycle against a live coordinator: join (alive), clean
// leave (left), and unclean death (suspect, then dead, by heartbeat
// timeout) — then a rejoin under a fresh incarnation.
func TestAgentsJoinBeatLeaveAndTimeOut(t *testing.T) {
	co := startCoordinator(t, Config{
		Nodes:     2,
		Policy:    fastPolicy(),
		TickEvery: 50 * time.Millisecond,
	})
	coord := co.Addr().String()

	a1, err := NewAgent(coord, nil)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewAgent(coord, nil)
	if err != nil {
		t.Fatal(err)
	}
	a1.Start()
	a2.Start()
	waitState(t, co, a1.Self(), cluster.Alive)
	waitState(t, co, a2.Self(), cluster.Alive)
	if a1.Generation() == 0 {
		t.Fatal("agent never learned a generation")
	}

	// Clean shutdown: the agent leaves; the coordinator marks it Left
	// immediately rather than waiting out the failure detector.
	a1.Close()
	waitState(t, co, a1.Self(), cluster.Left)

	// Unclean death: stop a2's beats without a leave by tearing its loop
	// down after its endpoint is gone — the coordinator must decay it
	// Suspect and then Dead on heartbeat silence alone.
	a2.ep.Close()
	waitState(t, co, a2.Self(), cluster.Suspect)
	waitState(t, co, a2.Self(), cluster.Dead)
	a2.Close()

	// A new instance reclaiming the identity rejoins under a bumped
	// incarnation, so its beats are distinguishable from the ghost's.
	a3, err := NewAgent(coord, nil)
	if err != nil {
		t.Fatal(err)
	}
	a3.Start()
	defer a3.Close()
	waitState(t, co, a3.Self(), cluster.Alive)
	m, _ := co.View().Find(a2.Self())
	if m.State != cluster.Dead {
		t.Fatalf("dead identity mutated by unrelated join: %v", m.State)
	}
}

// TestCoordinatorRunsConcurrentJobs is the service acceptance scenario:
// two jobs submitted together on one live cluster, running concurrently
// on separate lanes, both verified against the sequential reference,
// each with its own metrics, followed by a clean shutdown.
func TestCoordinatorRunsConcurrentJobs(t *testing.T) {
	co := startCoordinator(t, Config{Nodes: 4, MaxConcurrent: 2})

	specs := []JobSpec{
		{App: "jacobi", N: 48, Iters: 12, Trace: true},
		{App: "jacobi", N: 32, Iters: 20},
	}
	var jobs []*Job
	for _, s := range specs {
		j, err := co.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-j.Done():
			case <-time.After(120 * time.Second):
				t.Errorf("%s never finished", j.ID)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	lanes := map[int]bool{}
	for _, j := range jobs {
		if j.State() != JobDone {
			t.Fatalf("%s state %v error %q", j.ID, j.State(), j.Err())
		}
		res := j.Result()
		if res == nil || !res.OK {
			t.Fatalf("%s result not verified: %+v", j.ID, res)
		}
		if len(res.Metrics) == 0 {
			t.Fatalf("%s has no per-job metrics", j.ID)
		}
		v := j.view()
		lanes[v.Lane] = true
	}
	if len(lanes) != len(jobs) {
		t.Fatalf("concurrent jobs shared a lane: %v", lanes)
	}
	if jobs[0].Trace() == nil {
		t.Fatal("traced job produced no trace")
	}
	if jobs[1].Trace() != nil {
		t.Fatal("untraced job produced a trace")
	}
	if err := co.Close(); err != nil {
		t.Fatalf("clean shutdown failed: %v", err)
	}
}

// TestEveryTableAppRunsAsAJob: the daemon looks jobs up in internal/apps'
// table, so every shipped application — including the ones that ran only
// in the simulation before — reaches done, verified against its
// reference, over the live endpoints.
func TestEveryTableAppRunsAsAJob(t *testing.T) {
	co := startCoordinator(t, Config{Nodes: 2, MaxConcurrent: 2})
	for _, spec := range []JobSpec{
		{App: "mergesort", N: 4096},
		{App: "fft", N: 2048},
		{App: "exprtree", N: 8},
		{App: "matmul", N: 32, Protocol: "lrc"},
		{App: "quadrature", N: 8},
	} {
		j, err := co.Submit(spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		select {
		case <-j.Done():
		case <-time.After(120 * time.Second):
			t.Fatalf("%s (%s) never finished", j.ID, spec.App)
		}
		if res := j.Result(); j.State() != JobDone || res == nil || !res.OK {
			t.Errorf("%s (%s): state %v error %q result %+v", j.ID, spec.App, j.State(), j.Err(), res)
		}
	}
	if err := co.Close(); err != nil {
		t.Fatalf("clean shutdown failed: %v", err)
	}
}

// TestSubmitValidation exercises the scheduler-side rejections.
func TestSubmitValidation(t *testing.T) {
	co := startCoordinator(t, Config{Nodes: 1})
	if _, err := co.Submit(JobSpec{App: "fizzbuzz"}); err == nil || !strings.Contains(err.Error(), "mergesort") {
		t.Fatalf("unknown app: error %v does not list the table's names", err)
	}
	if _, err := co.Submit(JobSpec{App: "racer"}); err == nil {
		t.Fatal("a seeded-bug program was accepted as a job")
	}
	if _, err := co.Submit(JobSpec{App: "jacobi", Protocol: "telepathy"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := co.Submit(JobSpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Submit(JobSpec{App: "jacobi"}); err == nil {
		t.Fatal("submission accepted after shutdown")
	}
}
