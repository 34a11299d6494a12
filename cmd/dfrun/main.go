// dfrun executes one application/variant combination and prints its
// timing and per-node counters. The default -transport=sim runs on the
// simulated cluster (virtual time); -transport=udp runs the same node
// program over real loopback UDP endpoints, one per node, in this process
// (wall-clock time; see cmd/dfnode for the multi-process form).
//
// Usage:
//
//	dfrun -app jacobi -variant df -nodes 8
//	dfrun -app jacobi -variant df -nodes 4 -transport udp
//	dfrun -app matmul -variant cg -nodes 4 -n 256
//	dfrun -app quadrature -variant bag -nodes 8
//	dfrun -app exprtree -variant df -nodes 8 -protocol migratory
//	dfrun -app fft -variant df -nodes 4 -transport udp
//
// -app takes any name in internal/apps' table; on either transport the
// application is set up by the same Setup on a different Host.
package main

import (
	"flag"
	"fmt"
	"os"

	"filaments"
	"filaments/internal/apps"
	"filaments/internal/threads"
)

// main is the only caller of os.Exit: every error path returns through
// realMain, so the UDP variants' teardown (endpoint close, the
// Outstanding()==0 quiescence check inside UDPRun.Run) always executes
// before the process exits. The previous structure called os.Exit(1)
// from arbitrary depths, skipping both.
func main() {
	if err := realMain(); err != nil {
		fmt.Fprintf(os.Stderr, "dfrun: %v\n", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		name    = flag.String("app", "jacobi", "application: "+apps.Names())
		variant = flag.String("variant", "df", "variant: df, or a sim-only baseline: seq | cg (not fft, mergesort) | bag (quadrature only)")
		nodes   = flag.Int("nodes", 8, "cluster size")
		n       = flag.Int("n", 0, "problem dimension; for quadrature, the recursion depth cap (0 = paper default)")
		iters   = flag.Int("iters", 0, "jacobi iterations (0 = paper default)")
		height  = flag.Int("height", 0, "exprtree height (0 = paper default)")
		leaf    = flag.Int("leaf", 0, "fft/mergesort sequential-leaf size (0 = paper default)")
		tol     = flag.Float64("tol", 0, "quadrature tolerance (0 = paper default)")
		proto   = flag.String("protocol", "", "DSM protocol override: migratory | wi, write-invalidate | ii, implicit-invalidate | lrc, lazy-release")
		trans   = flag.String("transport", "sim", "binding: sim (virtual time) | udp (real loopback endpoints)")
		noDiffs = flag.Bool("nodiffs", false, "with -transport=udp: ship whole pages instead of twin-and-diff run-length diffs")
		trace   = flag.String("trace", "", "write a Chrome trace-event JSON file (DF variants; load in about:tracing or Perfetto)")
		metrics = flag.Bool("metrics", false, "print the cluster-wide metric aggregation after the run")
		verbose = flag.Bool("v", false, "per-node counters")
	)
	flag.Parse()

	app, ok := apps.ByName(*name)
	if !ok {
		return fmt.Errorf("unknown -app %q (%s)", *name, apps.Names())
	}
	protocol, err := app.ProtocolNamed(*proto)
	if err != nil {
		return err
	}
	params := apps.Params{N: *n, Iters: *iters, Height: *height, Leaf: *leaf, Tol: *tol}
	var tracer *filaments.Tracer
	if *trace != "" {
		tracer = filaments.NewTracer()
	}

	var rep *filaments.Report
	switch {
	case *trans == "udp":
		return runUDP(app, params, *variant, *nodes, protocol, *noDiffs, tracer, *trace, *metrics, *verbose)
	case *trans != "sim":
		return fmt.Errorf("unknown -transport %q (sim | udp)", *trans)
	case *variant == "df":
		cl := filaments.New(filaments.Config{
			Nodes: *nodes, Protocol: protocol, Stealing: app.Stealing, WakeFront: app.WakeFront, Tracer: tracer,
		})
		prog, _ := app.Setup(cl, params)
		if rep, err = cl.Run(prog); err != nil {
			return err
		}
	default:
		run, ok := app.Baselines[*variant]
		if !ok {
			return fmt.Errorf("%s has no variant %q", app.Name, *variant)
		}
		rep = run(params, *nodes)
	}

	fmt.Printf("%s/%s on %d nodes: %.2f simulated seconds\n",
		app.Name, *variant, *nodes, rep.Seconds())
	fmt.Printf("network: %d frames, %.1f MB, medium busy %.1f s (utilization %.0f%%)\n",
		rep.Net.FramesSent, float64(rep.Net.BytesSent)/(1<<20), rep.Net.Busy.Seconds(),
		100*rep.Net.Utilization(rep.Elapsed))
	if tracer != nil {
		if err := writeTrace(*trace, tracer); err != nil {
			return err
		}
	}
	if *metrics {
		printMetrics(rep.Metrics)
	}
	if !*verbose {
		return nil
	}
	fmt.Printf("%-5s %8s %9s %8s %8s %10s %8s %8s %8s\n",
		"node", "work(s)", "fil(s)", "data(s)", "sync(s)", "syncdly(s)", "idle(s)", "faults", "served")
	for i, nr := range rep.PerNode {
		a := nr.CPU
		fmt.Printf("%-5d %8.2f %9.3f %8.2f %8.2f %10.2f %8.2f %8d %8d\n",
			i,
			a[threads.CatWork].Seconds(),
			a[threads.CatFilament].Seconds(),
			a[threads.CatData].Seconds(),
			a[threads.CatSync].Seconds(),
			a[threads.CatSyncDelay].Seconds(),
			a[threads.CatIdle].Seconds(),
			nr.DSM.ReadFaults+nr.DSM.WriteFaults,
			nr.DSM.Served)
	}
	return nil
}

// runUDP executes the DF variant on the real-time binding: one UDP
// endpoint per node on loopback, wall-clock timing. Every table
// application runs here — the same Setup, on a different Host — but only
// its DF variant: the seq/cg baselines do not use the cluster. An error
// from the run — including the quiescence check (requests still
// outstanding after the last barrier) — returns through realMain so
// teardown is never skipped.
func runUDP(app *apps.App, params apps.Params, variant string, nodes int, protocol filaments.Protocol, noDiffs bool, tracer *filaments.Tracer, trace string, metrics, verbose bool) error {
	if variant != "df" {
		return fmt.Errorf("-transport=udp runs only -variant df (got %q): seq and cg do not use the cluster", variant)
	}
	cl, err := filaments.NewUDPCluster(filaments.UDPConfig{
		Nodes: nodes, Protocol: protocol, Stealing: app.Stealing, WakeFront: app.WakeFront,
		Tracer: tracer, NoDiffs: noDiffs,
	})
	if err != nil {
		return err
	}
	prog, _ := app.Setup(cl, params)
	rep, err := cl.Run(prog)
	if err != nil {
		return err
	}

	fmt.Printf("%s/df on %d nodes over loopback UDP: %.3f wall seconds\n",
		app.Name, nodes, rep.Elapsed.Seconds())
	var reqs, retrans, faults int64
	for _, nr := range rep.PerNode {
		reqs += nr.Transport.RequestsSent
		retrans += nr.Transport.Retransmits
		faults += nr.DSM.ReadFaults + nr.DSM.WriteFaults
	}
	fmt.Printf("network: %d requests, %d retransmits, %d page faults\n", reqs, retrans, faults)
	if tracer != nil {
		if err := writeTrace(trace, tracer); err != nil {
			return err
		}
	}
	if metrics {
		printMetrics(rep.Metrics)
	}
	if !verbose {
		return nil
	}
	fmt.Printf("%-5s %8s %8s %8s %10s %8s\n",
		"node", "faults", "served", "reqs", "retrans", "steals")
	for i, nr := range rep.PerNode {
		fmt.Printf("%-5d %8d %8d %8d %10d %8d\n",
			i,
			nr.DSM.ReadFaults+nr.DSM.WriteFaults,
			nr.DSM.Served,
			nr.Transport.RequestsSent,
			nr.Transport.Retransmits,
			nr.Runtime.StealsGranted)
	}
	return nil
}

// writeTrace exports the collected events as Chrome trace-event JSON.
func writeTrace(path string, tr *filaments.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Printf("trace: %d events -> %s\n", tr.Len(), path)
	return nil
}

// printMetrics prints the aggregated cluster-wide counters.
func printMetrics(samples []filaments.Sample) {
	fmt.Printf("metrics (cluster-wide):\n")
	for _, s := range samples {
		fmt.Printf("  %-24s %d\n", s.Name, s.Value)
	}
}
