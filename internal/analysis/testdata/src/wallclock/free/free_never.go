//go:build rpclint_never

// This twin of free.go is built only under a tag nothing sets. The
// loader must skip it, as go build does; reading it would redeclare
// Stamp and the fixture would not type-check.
package free

import "time"

func Stamp() time.Time { return time.Time{} }
