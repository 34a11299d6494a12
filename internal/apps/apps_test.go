package apps

import (
	"os"
	"reflect"
	"testing"

	"filaments"
	"filaments/internal/dsm"
)

// TestTableComplete: every application package under this directory has a
// row named after it, and no two rows share a name.
func TestTableComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]*App{shipped, seeded} {
		for _, a := range list {
			if seen[a.Name] {
				t.Errorf("two rows are named %q", a.Name)
			}
			seen[a.Name] = true
		}
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && !seen[e.Name()] {
			t.Errorf("internal/apps/%s has no row in the table", e.Name())
		}
	}
}

// TestProtocolFlagIsHonoured runs jacobi through the path cmd/dfrun takes
// from a -protocol string to a cluster. Before there was one parser and
// one table, "migratory" parsed to the Protocol zero value, which the
// application read as "my default": the migratory run's counters were the
// implicit-invalidate run's.
func TestProtocolFlagIsHonoured(t *testing.T) {
	app, _ := ByName("jacobi")
	counters := func(protocol string) []filaments.Sample {
		proto, err := app.ProtocolNamed(protocol)
		if err != nil {
			t.Fatal(err)
		}
		cl := filaments.New(filaments.Config{Nodes: 2, Protocol: proto})
		prog, _ := app.Setup(cl, Params{N: 32, Iters: 3})
		rep, err := cl.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		var out []filaments.Sample
		for _, s := range rep.Metrics {
			if len(s.Name) > 4 && s.Name[:4] == "dsm." {
				out = append(out, s)
			}
		}
		return out
	}
	if reflect.DeepEqual(counters("migratory"), counters("implicit-invalidate")) {
		t.Error("migratory and implicit-invalidate runs have identical dsm.* counters")
	}
	if !reflect.DeepEqual(counters(""), counters("ii")) {
		t.Error("jacobi's default is not implicit-invalidate")
	}

	// Every entry point resolves an unset protocol through ProtocolNamed,
	// so dfnode's default for an application is dfrun's and the daemon's.
	for _, a := range shipped {
		if named, err := a.ProtocolNamed(""); err != nil || named != a.Protocol {
			t.Errorf("%s: unset protocol resolves to %v, %v; want %v", a.Name, named, err, a.Protocol)
		}
	}
}

// TestParseProtocolSpellings: the one parser accepts every spelling any
// of the four it replaced accepted, and String round-trips.
func TestParseProtocolSpellings(t *testing.T) {
	for name, want := range map[string]filaments.Protocol{
		"migratory": filaments.Migratory,
		"wi":        filaments.WriteInvalidate, "write-invalidate": filaments.WriteInvalidate,
		"ii": filaments.ImplicitInvalidate, "implicit-invalidate": filaments.ImplicitInvalidate,
		"lrc": filaments.LazyRelease, "lazy-release": filaments.LazyRelease,
	} {
		if got, err := dsm.ParseProtocol(name); err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", name, got, err, want)
		}
		if got, err := dsm.ParseProtocol(want.String()); err != nil || got != want {
			t.Errorf("ParseProtocol(%v.String()) = %v, %v", want, got, err)
		}
	}
	for _, bad := range []string{"", "telepathy", "Migratory"} {
		if _, err := dsm.ParseProtocol(bad); err == nil {
			t.Errorf("ParseProtocol(%q) succeeded", bad)
		}
	}
}
