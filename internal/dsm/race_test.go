//go:build race

package dsm

// Under the race detector sync.Pool discards a quarter of its Puts at
// random, so the transport's pooled 60 KB frame buffers are sometimes
// fresh ones and byte counts per fault mean nothing.
func init() { poolDiscards = true }
