// Package reflect is a hermetic stand-in for the standard library's
// reflect package, for the hotalloc fixtures' allocating-stdlib checks.
package reflect

type Type interface{ String() string }

type Value struct{}

func TypeOf(v any) Type { return nil }

func ValueOf(v any) Value { return Value{} }
