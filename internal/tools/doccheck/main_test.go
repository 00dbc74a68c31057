package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

// The fixture module holds one case per rule: an export with a non-test
// caller, with a caller in its own package, with a caller in a nested
// module, with only a test caller, with only itself or a shadowed name as
// caller, in a *test package, on the allowlist, and without a doc comment;
// and a method that is called, named by a repository interface, on the
// standard-library list, called only by a test, and on an unexported type.
func TestFixtureModule(t *testing.T) {
	lib := filepath.Join("testdata", "mod", "lib")
	got, err := run([]string{
		lib,
		filepath.Join("testdata", "mod", "libtest"),
		filepath.Join("testdata", "mod", "internal", "tree"),
	})
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(lib, "lib.go")
	want := []string{
		file + ":13: Recursive: no non-test file references it",
		file + ":22: Shadowed: no non-test file references it",
		file + ":25: TestOnly: no non-test file references it",
		file + ":40: ForNested.TestOnlyMethod: no non-test file calls it",
		file + ":48: Undocumented: no doc comment",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("problems:\n%q\nwant:\n%q", got, want)
	}
}

// A package directory outside any module is an error, not a pass.
func TestNoModule(t *testing.T) {
	if _, err := run([]string{t.TempDir()}); err == nil {
		t.Fatal("a directory outside any module was accepted")
	}
}
