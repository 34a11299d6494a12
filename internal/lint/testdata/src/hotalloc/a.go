// Fixtures for the hotalloc analyzer: //dflint:hotpath functions and
// everything they reach must not allocate.
package hotalloc

import (
	"fmt"
	"reflect"
)

type enc struct{ B []byte }

type big struct{ A, B, C int64 }

func consume(x any, n int) {}

// The amortized idiom: self-append into the receiver's buffer.
//
//dflint:hotpath
func encFast(e *enc, v uint64) {
	for v >= 0x80 {
		e.B = append(e.B, byte(v)|0x80)
		v >>= 7
	}
	e.B = append(e.B, byte(v))
}

// A local alias of a caller-provided base stays caller-owned.
//
//dflint:hotpath
func appendInto(dst, src []byte) []byte {
	b := dst
	b = append(b, src...)
	return b
}

//dflint:hotpath
func freshAppend(n int) []byte {
	var out []byte
	for i := 0; i < n; i++ {
		out = append(out, byte(i)) // want "append onto a slice the caller does not own"
	}
	return out
}

//dflint:hotpath
func makes(e *enc) {
	tmp := make([]byte, 16) // want "make allocates"
	copy(tmp, e.B)
	e.B = tmp
}

// The allocation hides one frame down; the diagnostic names the route.
//
//dflint:hotpath
func viaHelper(dst []byte, v int64) []byte {
	return helper(dst, v)
}

func helper(dst []byte, v int64) []byte {
	dst = append(dst, byte(v))
	p := &big{A: v} // want "hot path \(via //dflint:hotpath viaHelper\) allocates: &composite literal"
	_ = p
	return dst
}

//dflint:hotpath
func boxing(v big) any {
	return v // want "returning a concrete value as any boxes it"
}

//dflint:hotpath
func sink(e *enc) {
	consume(e.B, 7) // want "passing a concrete value as any boxes it"
}

//dflint:hotpath
func toBytes(e *enc, s string) {
	e.B = append(e.B, []byte(s)...) // want "string/\[\]byte conversion copies"
}

//dflint:hotpath
func format() string {
	return fmt.Sprintf("x") // want "fmt.Sprintf allocates"
}

// reflect allocates, except TypeOf, which only reads the type word.
//
//dflint:hotpath
func typeKey(v any) reflect.Type {
	_ = reflect.ValueOf(v) // want "reflect.ValueOf allocates"
	return reflect.TypeOf(v)
}

//dflint:hotpath
func closes() {
	f := func() {} // want "a closure captures its environment"
	f()
}

// panic arguments are the cold path: no diagnostic for the Sprintf.
//
//dflint:hotpath
func guarded(e *enc, i int) byte {
	if i >= len(e.B) {
		panic(fmt.Sprintf("out of range"))
	}
	return e.B[i]
}

// Not annotated and not reachable from any root: free to allocate.
func coldAlloc() []byte {
	return make([]byte, 64)
}

// The escape hatch still works for deliberate amortized setup.
//
//dflint:hotpath
func allowed() []byte {
	//dflint:allow hotalloc one-time pool refill, amortized across the epoch
	return make([]byte, 4096)
}
