package dsm

import (
	"bytes"
	"encoding/binary"
)

// Run-length page diffs.
//
// A diff describes how to turn a block's content at one version (the
// base) into its content at a later version: a sequence of
// [uvarint skip][uvarint runLen][runLen bytes] entries, each skipping
// over an unchanged region and overwriting a changed one. Trailing
// unchanged bytes are implicit. An empty (or nil) diff means "identical
// to the base".
//
// Runs are found at 8-byte-word granularity — the accessors write the
// space in word units, so finer boundaries would only fragment runs and
// inflate the entry overhead. The final sub-word tail is compared
// bytewise.

// diffWord is the comparison granularity.
const diffWord = 8

// diffEncode appends the diff from base to cur (equal lengths) to out,
// which must be empty, and returns the extended buffer. It gives up and
// reports ok=false as soon as the diff exceeds limit bytes — past that
// point shipping the full page is cheaper than shipping the diff plus
// applying it. The buffer comes back either way, for the next call.
//
//dflint:hotpath
func diffEncode(out, base, cur []byte, limit int) (diff []byte, ok bool) {
	i, n := 0, len(cur)
	for i < n {
		skipStart := i
		for i < n {
			s := min(diffWord, n-i)
			if wordDiffers(base, cur, i, s) {
				break
			}
			i += s
		}
		if i == n {
			break // trailing unchanged region is implicit
		}
		skip := i - skipStart
		runStart := i
		for i < n {
			s := min(diffWord, n-i)
			if !wordDiffers(base, cur, i, s) {
				break
			}
			i += s
		}
		out = binary.AppendUvarint(out, uint64(skip))
		out = binary.AppendUvarint(out, uint64(i-runStart))
		out = append(out, cur[runStart:i]...)
		if len(out) > limit {
			return out, false
		}
	}
	return out, true
}

func wordDiffers(base, cur []byte, i, s int) bool {
	if s == diffWord {
		return binary.LittleEndian.Uint64(base[i:]) != binary.LittleEndian.Uint64(cur[i:])
	}
	return !bytes.Equal(base[i:i+s], cur[i:i+s])
}

// diffApply patches frame in place with a diff produced by diffEncode
// against frame's current content. It reports false (leaving frame
// partially patched) on a malformed diff — which peers never send, so
// callers treat it as a protocol bug.
//
//dflint:hotpath
func diffApply(frame, diff []byte) bool {
	off := 0
	for len(diff) > 0 {
		skip, w := binary.Uvarint(diff)
		if w <= 0 {
			return false
		}
		diff = diff[w:]
		run, w2 := binary.Uvarint(diff)
		if w2 <= 0 {
			return false
		}
		diff = diff[w2:]
		if skip > uint64(len(frame)-off) {
			return false
		}
		off += int(skip)
		if run == 0 || run > uint64(len(frame)-off) || run > uint64(len(diff)) {
			return false
		}
		copy(frame[off:], diff[:run])
		off += int(run)
		diff = diff[run:]
	}
	return true
}
