package udptrans

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// poolDiscards is set when sync.Pool does not keep what it is given (see
// race_test.go); allocation counts that include pooled buffers mean
// nothing then.
var poolDiscards bool

// bufNews counts the frame buffers bufPool had to make: a receive buffer
// that is dropped instead of put back comes back as a fresh one.
var bufNews atomic.Int64

func init() {
	fresh := bufPool.New
	bufPool.New = func() any { bufNews.Add(1); return fresh() }
}

// TestReplyRacingCancelIsNotDelivered pins the reply that loses the race
// against its call's cancellation: it must not reach the next call that
// reuses the call record, and its receive buffer must go back to the pool.
// The caller's DupSend hook runs between its send and its select, so
// holding it there until the reply has been matched, and cancelling then,
// makes both select cases ready at once — the state a barrier release
// overtaking its reply produces in real runs.
func TestReplyRacingCancelIsNotDelivered(t *testing.T) {
	const calls = 3000
	run := func(race bool) (news int64, cancelled int) {
		var a *Endpoint
		var cancel atomic.Pointer[context.CancelFunc]
		var seen atomic.Int64 // replies matched before the current call
		a, err := Listen("127.0.0.1:0", Options{DupSend: func([]byte) bool {
			if !race {
				return false
			}
			for deadline := time.Now().Add(time.Second); a.Stats().RepliesReceived == seen.Load() && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			(*cancel.Load())()
			return false
		}})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Listen("127.0.0.1:0", Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		defer b.Close()
		b.Register(svcEcho, Service{Idempotent: true,
			Handler: func(_ *net.UDPAddr, req []byte) ([]byte, bool) { return req, false }})

		before := bufNews.Load()
		var req [8]byte
		for i := 0; i < calls; i++ {
			ctx, c := context.WithCancel(context.Background())
			cancel.Store(&c)
			seen.Store(a.Stats().RepliesReceived)
			binary.LittleEndian.PutUint64(req[:], uint64(i))
			payload, release, err := a.CallBuffered(ctx, b.Addr(), svcEcho, req[:])
			switch {
			case err == nil:
				if got := binary.LittleEndian.Uint64(payload); got != uint64(i) {
					t.Fatalf("call %d was handed call %d's reply", i, got)
				}
				release()
			case errors.Is(err, context.Canceled):
				cancelled++
			default:
				t.Fatalf("call %d: %v", i, err)
			}
			c()
		}
		if n := a.Outstanding(); n != 0 {
			t.Errorf("%d calls still pending", n)
		}
		return bufNews.Load() - before, cancelled
	}

	control, _ := run(false)
	news, cancelled := run(true)
	t.Logf("%d of %d calls lost to the cancel; %d fresh buffers against %d without the race", cancelled, calls, news, control)
	if cancelled < calls/10 {
		t.Errorf("only %d of %d calls lost the race; the test is not exercising it", cancelled, calls)
	}
	// One leaked buffer per lost call would be cancelled extra; the slack
	// covers what sync.Pool itself drops.
	if news > control+int64(calls/8) {
		t.Errorf("%d fresh frame buffers with the race against %d without: replies that lose to a cancel leak their buffer", news, control)
	}
}

// TestCallAllocations is the per-call allocation gate: a small echo costs
// at most the reply copy Call returns plus slack, not a call record, a
// channel, a timer per attempt, a key string and two addresses.
func TestCallAllocations(t *testing.T) {
	if poolDiscards {
		t.Skip("sync.Pool discards buffers under the race detector")
	}
	a, b := pair(t, Options{})
	reply := []byte("pong")
	b.Register(svcEcho, Service{Idempotent: true,
		Handler: func(*net.UDPAddr, []byte) ([]byte, bool) { return reply, false }})
	call := func() {
		if _, err := a.Call(b.Addr(), svcEcho, []byte("ping")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		call()
	}
	if n := testing.AllocsPerRun(500, call); n > 4 {
		t.Errorf("Endpoint.Call allocates %.1f times per small echo, want ≤ 4", n)
	} else {
		t.Logf("%.1f allocs per small echo", n)
	}
}
