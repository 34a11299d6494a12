//go:build race

package udptrans

// Under the race detector sync.Pool discards a quarter of its Puts at
// random, so every pooled 60 KB frame buffer is sometimes a fresh one.
func init() { poolDiscards = true }
