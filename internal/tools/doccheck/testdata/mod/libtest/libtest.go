// Package libtest is test support: its exports need no non-test caller.
package libtest

// Fake is referenced by nothing.
func Fake() {}
