// dfcheck is the DSM memory-model checker: it runs the shipped DF
// applications in the simulator with a vector-clock happens-before race
// detector attached to every typed access, and replays each run on a
// single node to assert sequential consistency (bitwise-equal pages at
// every quiescent barrier epoch).
//
// Usage:
//
//	dfcheck [-app all|<any internal/apps table name>|racer|racer-overlap]
//	        [-protocol all|migratory|write-invalidate|implicit-invalidate|lazy-release]
//	        [-mirage both|on|off] [-nodes n] [-selftest] [-v]
//
// dfcheck exits 0 when every checked configuration is race-free,
// annotation-clean, and oracle-clean, and 1 otherwise. The oracle is
// per-model: the single-writer protocols are held to sequential
// consistency, lazy-release to release consistency (same digest
// comparison — the home holds every merge at the fold — plus a
// no-unflushed-state assertion). -selftest runs the deliberately racy
// seeded programs (internal/apps/racer) and exits 0 only if the checker
// catches both the write/read race under write-invalidate and the
// write/write overlap under lazy-release — the checker checking itself.
//
// The static half of the memory-model suite lives in dflint: the
// sharedrange, loopcapture, and barrierphase analyzers flag the same bug
// patterns at compile time.
package main

import (
	"flag"
	"fmt"
	"os"

	"filaments"
	"filaments/internal/apps"
	"filaments/internal/check"
	"filaments/internal/dsm"
)

func main() {
	appFlag := flag.String("app", "all", "application to check: all | "+apps.Names()+" | racer | racer-overlap")
	protoFlag := flag.String("protocol", "all", "page consistency protocol: all | migratory | wi, write-invalidate | ii, implicit-invalidate | lrc, lazy-release")
	mirageFlag := flag.String("mirage", "both", "Mirage anti-thrashing window: both, on, or off")
	nodes := flag.Int("nodes", 4, "cluster size for the parallel run")
	selftest := flag.Bool("selftest", false, "run the seeded-race program and require the checker to catch it")
	verbose := flag.Bool("v", false, "print every checked configuration, not just failures")
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *selftest {
		os.Exit(runSelftest(*nodes))
	}

	list := apps.All()
	if *appFlag != "all" {
		a, ok := apps.ByName(*appFlag)
		if !ok {
			fmt.Fprintf(os.Stderr, "dfcheck: unknown app %q\n", *appFlag)
			os.Exit(2)
		}
		list = []*apps.App{a}
	}

	protos, err := parseProtocols(*protoFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dfcheck: %v\n", err)
		os.Exit(2)
	}
	var mirages []bool
	switch *mirageFlag {
	case "both":
		mirages = []bool{true, false}
	case "on":
		mirages = []bool{true}
	case "off":
		mirages = []bool{false}
	default:
		fmt.Fprintf(os.Stderr, "dfcheck: unknown -mirage value %q\n", *mirageFlag)
		os.Exit(2)
	}

	failures := 0
	checked := 0
	for _, app := range list {
		for _, proto := range protos {
			for _, mirage := range mirages {
				if !mirage && app.MirageOffSafe != nil && !app.MirageOffSafe(proto, *nodes) {
					if *verbose {
						fmt.Printf("SKIP %s (window-off leg would livelock by design: see internal/check)\n",
							configName(app.Name, proto, mirage, *nodes))
					}
					continue
				}
				res := check.CheckApp(app, *nodes, proto, mirage)
				checked++
				if reportResult(res, *verbose) {
					failures++
				}
			}
		}
	}
	if checked == 0 {
		fmt.Fprintln(os.Stderr, "dfcheck: no configuration checked")
		os.Exit(2)
	}
	if failures > 0 {
		fmt.Printf("dfcheck: %d of %d configurations FAILED\n", failures, checked)
		os.Exit(1)
	}
	fmt.Printf("dfcheck: %d configurations clean\n", checked)
}

// parseProtocols resolves -protocol: "all" sweeps the four, anything
// else is one protocol by name.
func parseProtocols(s string) ([]filaments.Protocol, error) {
	if s == "all" {
		return []filaments.Protocol{
			filaments.Migratory, filaments.WriteInvalidate, filaments.ImplicitInvalidate,
			filaments.LazyRelease,
		}, nil
	}
	p, err := dsm.ParseProtocol(s)
	return []filaments.Protocol{p}, err
}

func configName(app string, proto filaments.Protocol, mirage bool, nodes int) string {
	w := "on"
	if !mirage {
		w = "off"
	}
	return fmt.Sprintf("%s nodes=%d proto=%s mirage=%s", app, nodes, proto, w)
}

// reportResult prints one configuration's outcome; true means it failed.
func reportResult(res *check.Result, verbose bool) bool {
	name := configName(res.App, res.Protocol, res.Mirage, res.Nodes) + " model=" + res.Model.String()
	bad := !res.Ok()
	if bad {
		fmt.Printf("FAIL %s (%d accesses, %d epochs)\n", name, res.Parallel.Accesses, res.Epochs)
		if res.Err != nil {
			fmt.Printf("  oracle: %v\n", res.Err)
		}
		for _, r := range res.Parallel.Races {
			fmt.Printf("  %s\n", r)
		}
		for _, v := range res.Parallel.Violations {
			fmt.Printf("  %s\n", v)
		}
		for _, m := range res.Mismatches {
			fmt.Printf("  oracle: %s\n", m)
		}
	} else if verbose {
		fmt.Printf("ok   %s (%d accesses, %d quiescent epochs)\n", name, res.Parallel.Accesses, res.Epochs)
	}
	return bad
}

// runSelftest checks the checker: the seeded-race programs must produce
// race reports naming both accesses — the write/read race under
// write-invalidate and the write/write overlap under lazy-release (whose
// barrier-time flush edges must not order same-interval writes).
func runSelftest(nodes int) int {
	if nodes < 2 {
		nodes = 2
	}
	racer, _ := apps.ByName("racer")
	res := check.CheckApp(racer, nodes, filaments.WriteInvalidate, true)
	if len(res.Parallel.Races) == 0 {
		fmt.Println("dfcheck selftest: FAILED — seeded race not detected")
		return 1
	}
	fmt.Printf("dfcheck selftest: seeded race detected (%d report(s)):\n", len(res.Parallel.Races))
	for _, r := range res.Parallel.Races {
		fmt.Printf("  %s\n", r)
	}
	writers, _ := apps.ByName("racer-overlap")
	overlap := check.CheckApp(writers, nodes, filaments.LazyRelease, true)
	if len(overlap.Parallel.Races) == 0 {
		fmt.Println("dfcheck selftest: FAILED — overlapping writers not detected under lazy-release")
		return 1
	}
	fmt.Printf("dfcheck selftest: lazy-release overlap detected (%d report(s)):\n", len(overlap.Parallel.Races))
	for _, r := range overlap.Parallel.Races {
		fmt.Printf("  %s\n", r)
	}
	return 0
}
