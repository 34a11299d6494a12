package dsm

// PoisonFreedBuffers fills every buffer with 0xAA as it enters a DSM's
// free list, until restore is called: a reader of a recycled buffer's old
// content — a reply still aliasing a freed frame, a virgin page installed
// without clearing — then computes with NaN-like garbage instead of
// plausible stale data.
func PoisonFreedBuffers() (restore func()) {
	freedHook = func(b []byte) {
		for i := range b {
			b[i] = 0xAA
		}
	}
	return func() { freedHook = nil }
}
