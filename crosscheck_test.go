package filaments_test

import (
	"reflect"
	"testing"

	"filaments"
	"filaments/internal/apps"
)

// table looks an application up in internal/apps.
func table(tb testing.TB, name string) *apps.App {
	tb.Helper()
	app, ok := apps.ByName(name)
	if !ok {
		tb.Fatalf("no %q in the app table", name)
	}
	return app
}

// simDF runs a table application's DF program in the simulation, on the
// cluster the table says it runs on under protocol ("" for its default)
// after tune, if any, has adjusted it, and returns the report, the
// flattened result and the cluster.
func simDF(tb testing.TB, app *apps.App, nodes int, protocol string, tune func(*filaments.Config), p apps.Params) (*filaments.Report, []float64, *filaments.Cluster) {
	tb.Helper()
	proto, err := app.ProtocolNamed(protocol)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := filaments.Config{Nodes: nodes, Protocol: proto, Stealing: app.Stealing, WakeFront: app.WakeFront}
	if tune != nil {
		tune(&cfg)
	}
	cl := filaments.New(cfg)
	prog, res := app.Setup(cl, p)
	rep, err := cl.Run(prog)
	if err != nil {
		tb.Fatal(err)
	}
	return rep, res.Collect(cl.PeekF64), cl
}

// udpDF is simDF on the single-process real-time cluster.
func udpDF(tb testing.TB, app *apps.App, nodes int, protocol string, tune func(*filaments.UDPConfig), p apps.Params) (*filaments.UDPReport, []float64, *filaments.UDPCluster) {
	tb.Helper()
	proto, err := app.ProtocolNamed(protocol)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := filaments.UDPConfig{Nodes: nodes, Protocol: proto, Stealing: app.Stealing, WakeFront: app.WakeFront}
	if tune != nil {
		tune(&cfg)
	}
	cl, err := filaments.NewUDPCluster(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	prog, res := app.Setup(cl, p)
	rep, err := cl.Run(prog)
	if err != nil {
		tb.Fatal(err)
	}
	return rep, res.Collect(cl.PeekF64), cl
}

// crossCheck runs one application on BOTH bindings — the deterministic
// simulation and the real-time UDP cluster — and requires each result to
// equal the plain-Go reference under the table's comparison (bitwise,
// except quadrature's tolerance), plus a fully quiesced transport
// (Outstanding() == 0) after each run.
func crossCheck(t *testing.T, app *apps.App, nodes int, protocol string, stealing bool, p apps.Params) {
	t.Helper()
	want := app.Reference(p)
	_, got, cl := simDF(t, app, nodes, protocol, func(c *filaments.Config) { c.Stealing = c.Stealing || stealing }, p)
	if bad := app.Mismatches(got, want); bad != 0 {
		t.Errorf("sim: %d of %d result words differ from the reference", bad, len(want))
	}
	if out := cl.Outstanding(); out != 0 {
		t.Errorf("sim cluster has %d outstanding requests after Run", out)
	}
	_, got, ucl := udpDF(t, app, nodes, protocol, func(c *filaments.UDPConfig) { c.Stealing = c.Stealing || stealing }, p)
	if bad := app.Mismatches(got, want); bad != 0 {
		t.Errorf("udp: %d of %d result words differ from the reference", bad, len(want))
	}
	if out := ucl.Outstanding(); out != 0 {
		t.Errorf("udp cluster has %d outstanding requests after Run", out)
	}
}

// TestProtocolCrossCheck runs jacobi and matmul under every page
// consistency protocol, and every other table application under its own
// at its dfcheck size, on both bindings. The protocols move pages in
// completely different patterns (migration vs read-replication vs
// implicit invalidation vs twinned diffs), but each program computes
// every output word from identical inputs in identical FP order, so any
// difference at all is a coherence bug, not roundoff.
func TestProtocolCrossCheck(t *testing.T) {
	const nodes = 2
	protos := []filaments.Protocol{
		filaments.Migratory, filaments.WriteInvalidate, filaments.ImplicitInvalidate,
		filaments.LazyRelease,
	}
	swept := map[string]apps.Params{"jacobi": {N: 32, Iters: 3}, "matmul": {N: 32}}
	for _, name := range []string{"jacobi", "matmul"} {
		t.Run(name, func(t *testing.T) {
			for _, proto := range protos {
				t.Run(proto.String(), func(t *testing.T) {
					crossCheck(t, table(t, name), nodes, proto.String(), false, swept[name])
				})
			}
		})
	}

	// Page diffs must be strictly optional: one leg ships whole pages end
	// to end (every other UDP leg runs with diffs on, the default).
	t.Run("jacobi-whole-pages", func(t *testing.T) {
		app, p := table(t, "jacobi"), swept["jacobi"]
		_, got, ucl := udpDF(t, app, nodes, "", func(c *filaments.UDPConfig) { c.NoDiffs = true }, p)
		if bad := app.Mismatches(got, app.Reference(p)); bad != 0 {
			t.Errorf("udp-whole-pages: %d result words differ from the reference", bad)
		}
		if out := ucl.Outstanding(); out != 0 {
			t.Errorf("udp cluster has %d outstanding requests after Run", out)
		}
	})

	for _, app := range apps.All() {
		if _, sweep := swept[app.Name]; sweep {
			continue
		}
		t.Run(app.Name, func(t *testing.T) { crossCheck(t, app, nodes, "", false, app.Check) })
		if app.CheckStealing {
			t.Run(app.Name+"-stealing", func(t *testing.T) { crossCheck(t, app, nodes, "", true, app.Check) })
		}
	}
}

// TestSetupIsHostIndependent: every table row's Setup performs the same
// allocations, in the same order, on a simulated cluster and on a UDP
// cluster — the SPMD convention a multi-process run depends on — so the
// result lies at the same shared addresses on both.
func TestSetupIsHostIndependent(t *testing.T) {
	for _, app := range append([]*apps.App{table(t, "racer"), table(t, "racer-overlap")}, apps.All()...) {
		name := app.Name
		sim := filaments.New(filaments.Config{Nodes: 2})
		_, onSim := app.Setup(sim, app.Check)
		udp, err := filaments.NewUDPCluster(filaments.UDPConfig{Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		_, onUDP := app.Setup(udp, app.Check)
		if err := udp.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(onSim.Shared, onUDP.Shared) {
			t.Errorf("%s: result at %+v on the simulated host, %+v on the UDP host", name, onSim.Shared, onUDP.Shared)
		}
		if (onSim.Scalar == nil) != (onUDP.Scalar == nil) {
			t.Errorf("%s: result has a scalar on one host only", name)
		}
		if next := sim.Alloc(8); next != udp.Alloc(8) {
			t.Errorf("%s: address spaces diverge after Setup", name)
		}
	}
}
