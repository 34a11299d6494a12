package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestHelperProcess is not a test: re-executed with DFNODE_HELPER_PROCESS
// set, it becomes the dfnode binary (the arguments after "--" are dfnode's
// flags). This lets the smoke test below spawn real dfnode processes
// without building a separate binary.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("DFNODE_HELPER_PROCESS") != "1" {
		return
	}
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	os.Args = append([]string{"dfnode"}, args...)
	flag.CommandLine = flag.NewFlagSet("dfnode", flag.ExitOnError)
	main()
	os.Exit(0)
}

// freePorts reserves n distinct loopback UDP ports by binding ephemeral
// sockets, then releases them for the child processes to rebind.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	conns := make([]*net.UDPConn, n)
	for i := range ports {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		ports[i] = c.LocalAddr().(*net.UDPAddr).Port
	}
	for _, c := range conns {
		c.Close()
	}
	return ports
}

// twoProcess runs one table application across two separate OS processes
// talking over loopback UDP. Each process verifies its share of the result
// against the plain-Go reference in-program (the mismatch count is reduced
// across the cluster), so a clean "RESULT OK" from both is an end-to-end
// check of the real-time binding: sockets, retransmission, page migration,
// barriers, and reductions between address spaces.
func twoProcess(t *testing.T, problem ...string) {
	ports := freePorts(t, 2)
	peers := fmt.Sprintf("127.0.0.1:%d,127.0.0.1:%d", ports[0], ports[1])

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var outs [2]bytes.Buffer
	var cmds [2]*exec.Cmd
	for id := range cmds {
		args := append([]string{"-test.run=^TestHelperProcess$", "--",
			"-id", fmt.Sprint(id), "-nodes", "2", "-peers", peers, "-v"}, problem...)
		cmd := exec.CommandContext(ctx, os.Args[0], args...)
		cmd.Env = append(os.Environ(), "DFNODE_HELPER_PROCESS=1")
		cmd.Stdout = &outs[id]
		cmd.Stderr = &outs[id]
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds[id] = cmd
	}
	for id, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Errorf("node %d exited: %v\n%s", id, err, outs[id].String())
			continue
		}
		if !strings.Contains(outs[id].String(), "RESULT OK") {
			t.Errorf("node %d did not report RESULT OK:\n%s", id, outs[id].String())
		}
	}
}

func TestTwoProcessJacobi(t *testing.T) { twoProcess(t, "-n", "32", "-iters", "4") }

// TestTwoProcessTableApps: the in-program check is generic over the app
// table, so what ran only in one process before runs across two — a
// striped allocation under a node's monitor (matmul), and fork/join tasks
// shipped between address spaces over page groups (mergesort).
func TestTwoProcessTableApps(t *testing.T) {
	t.Run("matmul", func(t *testing.T) { twoProcess(t, "-app", "matmul", "-n", "32") })
	t.Run("mergesort", func(t *testing.T) { twoProcess(t, "-app", "mergesort", "-n", "4096") })
}
