// dfnode is the cluster's node daemon, in one of three modes.
//
// One-shot (the default): run ONE node of a multi-process DF cluster
// over real UDP. Start one process per node with the same -nodes,
// -peers, -app and problem flags; each binds the peer address at its own
// -id and they find each other over the wire. -app takes any name in
// internal/apps' table. The program verifies its own result
// (apps.App.Checked): every node checks its share of the result against
// the plain-Go reference, the mismatch counts are combined by a
// reduction, and every process prints RESULT OK (or RESULT MISMATCH n
// and a non-zero exit).
//
//	dfnode -id 0 -nodes 2 -peers 127.0.0.1:9800,127.0.0.1:9801 &
//	dfnode -id 1 -nodes 2 -peers 127.0.0.1:9800,127.0.0.1:9801
//
// Coordinator (-coordinator): run the service layer. The process hosts
// the compute cluster (-nodes live endpoints), owns the membership
// table, and serves the REST job API on -http: POST /jobs to submit,
// GET /jobs/{id} to poll, GET /cluster for the membership view. See
// "Running as a service" in the README.
//
//	dfnode -coordinator -nodes 4 -http 127.0.0.1:8080
//
// Worker (-join): join a coordinator's membership and heartbeat until
// terminated, leaving cleanly on SIGINT/SIGTERM. Combine with the
// one-shot flags to run a compute epoch while enrolled, or use it bare
// as a standby member.
//
// All modes shut down on SIGINT/SIGTERM by releasing their resources in
// order — stop accepting work, leave the membership, close the UDP
// endpoints, stop the HTTP server — rather than exiting mid-epoch with
// sockets and memberships dangling.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // -http serves the standard profiling endpoints
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"filaments"
	"filaments/internal/apps"
	"filaments/internal/cluster/daemon"
)

func main() {
	os.Exit(run())
}

// run is the real main: every path returns an exit code through here,
// so deferred cleanup (sockets, memberships, HTTP listeners) always
// executes — os.Exit never skips it mid-epoch.
func run() int {
	var (
		coord = flag.Bool("coordinator", false, "run the service coordinator: host the compute cluster, the membership table, and the REST job API on -http")
		join  = flag.String("join", "", "join the coordinator at this address as a cluster member (host:port of its membership endpoint)")
		id    = flag.Int("id", 0, "this node's identity, in [0, nodes)")
		nodes = flag.Int("nodes", 2, "cluster size")
		peers = flag.String("peers", "", "comma-separated node addresses, indexed by id (entry id is this node's bind address)")
		app   = flag.String("app", "jacobi", "application: "+apps.Names())
		n     = flag.Int("n", 64, "problem dimension; for quadrature, the recursion depth cap")
		iters = flag.Int("iters", 8, "jacobi iterations")
		proto = flag.String("protocol", "", "DSM protocol override: migratory | wi, write-invalidate | ii, implicit-invalidate | lrc, lazy-release")
		jobs  = flag.Int("jobs", 2, "coordinator: max concurrently running jobs")
		hAddr = flag.String("http", "", "serve HTTP on this address: pprof (/debug/pprof/) and /metrics; with -coordinator, the job API (default 127.0.0.1:8080)")
		v     = flag.Bool("v", false, "print per-node counters")
	)
	flag.Parse()

	if *coord {
		addr := *hAddr
		if addr == "" {
			addr = "127.0.0.1:8080"
		}
		return runCoordinator(addr, *nodes, *jobs)
	}

	return runNode(nodeFlags{
		join: *join, id: *id, nodes: *nodes, peers: *peers,
		app: *app, n: *n, iters: *iters, protocol: *proto,
		hAddr: *hAddr, verbose: *v,
	})
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "dfnode: "+format+"\n", args...)
	return 1
}

// serveHTTP binds addr synchronously — a bad address or an occupied
// port is a startup failure the operator sees immediately, not a
// message lost on stderr while the process runs on without its
// endpoints — and serves handler until Shutdown. Serve errors arrive on
// the returned channel.
func serveHTTP(addr string, handler http.Handler) (*http.Server, net.Addr, <-chan error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, nil, err
	}
	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	return srv, ln.Addr(), errc, nil
}

func shutdownHTTP(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx) //nolint:errcheck // best-effort drain on the way out
}

// runCoordinator hosts the service: compute cluster + membership + job
// API, until SIGINT/SIGTERM.
func runCoordinator(httpAddr string, nodes, maxJobs int) int {
	co, err := daemon.NewCoordinator(daemon.Config{Nodes: nodes, MaxConcurrent: maxJobs})
	if err != nil {
		return fail("%v", err)
	}
	defer co.Close() //nolint:errcheck // second Close on the signal path is a no-op

	mux := http.NewServeMux()
	mux.Handle("/", co.Handler())
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	srv, addr, errc, err := serveHTTP(httpAddr, mux)
	if err != nil {
		return fail("http: %v", err)
	}
	fmt.Printf("dfnode: coordinator serving on http://%s (cluster %s, %d nodes, %d job slots)\n",
		addr, co.Addr(), nodes, maxJobs)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		// The API listener died under us; the service is headless, so
		// stop — through the same ordered shutdown as a signal.
		shutdownHTTP(srv)
		if cerr := co.Close(); cerr != nil {
			return fail("http: %v; close: %v", err, cerr)
		}
		return fail("http: %v", err)
	case s := <-sig:
		fmt.Printf("dfnode: %v: draining jobs and shutting down\n", s)
		shutdownHTTP(srv)
		if err := co.Close(); err != nil {
			return fail("close: %v", err)
		}
		fmt.Println("dfnode: coordinator shut down cleanly")
		return 0
	}
}

type nodeFlags struct {
	join       string
	id, nodes  int
	peers, app string
	n, iters   int
	protocol   string
	hAddr      string
	verbose    bool
}

// runNode is the one-shot compute node, optionally enrolled in a
// coordinator's membership for its lifetime.
func runNode(f nodeFlags) int {
	addrs := strings.Split(f.peers, ",")
	if f.peers == "" || len(addrs) != f.nodes {
		return fail("-peers must list exactly -nodes addresses (got %d for %d nodes)", len(addrs), f.nodes)
	}
	app, ok := apps.ByName(f.app)
	if !ok || app.Reference == nil {
		return fail("unknown -app %q (%s)", f.app, apps.Names())
	}
	protocol, err := app.ProtocolNamed(f.protocol)
	if err != nil {
		return fail("%v", err)
	}

	u, err := filaments.NewUDPNode(filaments.UDPNodeConfig{
		ID:        f.id,
		Nodes:     f.nodes,
		Peers:     addrs,
		Protocol:  protocol,
		Stealing:  app.Stealing,
		WakeFront: app.WakeFront,
		// With -join, the membership Leave must go out over this socket
		// after the epoch; the deferred Closes below run agent-then-node.
		KeepOpen: f.join != "",
	})
	if err != nil {
		return fail("%v", err)
	}
	defer u.Close()

	var agent *daemon.Agent
	if f.join != "" {
		// Membership traffic shares the kernel endpoint: one socket, one
		// identity. Deregistration rides the deferred Close paths below.
		agent, err = daemon.NewAgent(f.join, u.Endpoint())
		if err != nil {
			return fail("%v", err)
		}
		agent.Start()
		defer agent.Close()
	}

	// /metrics declares itself unready (503, JSON error body) until the
	// node is actually serving; scrapers distinguish "starting" from
	// "broken" by status, not by absence.
	var ready atomic.Bool
	if f.hAddr != "" {
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			if !ready.Load() {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				json.NewEncoder(w).Encode(map[string]string{ //nolint:errcheck // client went away
					"error": "node is not serving yet",
				})
				return
			}
			var gen uint64
			if agent != nil {
				gen = agent.Generation()
			}
			// The node's counters are lock-free atomics, so this reads
			// them live while the run is in progress.
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			fmt.Fprintf(w, "df_membership_generation %d\n", gen)
			for _, s := range u.Metrics() {
				fmt.Fprintf(w, "df_%s %d\n", strings.ReplaceAll(s.Name, ".", "_"), s.Value)
			}
		})
		srv, _, errc, err := serveHTTP(f.hAddr, nil) // nil: the default mux (pprof + /metrics)
		if err != nil {
			return fail("http: %v", err)
		}
		defer shutdownHTTP(srv)
		go func() {
			if err := <-errc; err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "dfnode: http: %v\n", err)
			}
		}()
	}
	ready.Store(true)

	type outcome struct {
		rep        *filaments.UDPNodeReport
		mismatches int
		err        error
	}
	done := make(chan outcome, 1)
	go func() {
		// Every process sets the identical application up on its own node
		// (the SPMD convention) and checks its share of the result
		// in-program: no process holds the whole of it afterwards.
		params := apps.Params{N: f.n, Iters: f.iters}
		prog, res := app.Setup(u, params)
		var mismatches int
		rep, err := u.Run(app.Checked(prog, res, app.Reference(params), &mismatches))
		done <- outcome{rep, mismatches, err}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	var out outcome
	select {
	case out = <-done:
	case s := <-sig:
		// Mid-epoch termination: leave the membership and release the
		// socket (the deferred agent.Close and u.Close), then report the
		// interruption honestly instead of os.Exit-ing around cleanup.
		fmt.Fprintf(os.Stderr, "dfnode: %v: leaving membership and closing endpoint\n", s)
		u.Close()
		select {
		case <-done: // the run noticed the closed endpoint
		case <-time.After(5 * time.Second):
		}
		return fail("interrupted mid-epoch by %v", s)
	}
	if out.err != nil {
		return fail("%v", out.err)
	}

	if f.verbose {
		rep := out.rep
		fmt.Printf("node %d: %d faults, %d pages served, %d requests, %d retransmits\n",
			f.id, rep.DSM.ReadFaults+rep.DSM.WriteFaults, rep.DSM.Served,
			rep.Transport.RequestsSent, rep.Transport.Retransmits)
	}
	if out.mismatches != 0 {
		fmt.Printf("RESULT MISMATCH %d\n", out.mismatches)
		return 1
	}
	fmt.Println("RESULT OK")
	return 0
}
