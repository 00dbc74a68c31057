// Package tree holds an export the allowlist names.
package tree

// MustNew is referenced by nothing, and allowlisted.
func MustNew() {}
