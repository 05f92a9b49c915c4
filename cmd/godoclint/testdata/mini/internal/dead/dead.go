// Package dead declares one export that only its test references.
package dead

import "strconv"

// Kind is returned by Used.
type Kind int

// String formats the kind.
func (k Kind) String() string { return strconv.Itoa(int(k)) }

// Used is referenced by main.
func Used() Kind { return Kind(helper()) }

func helper() int { return 1 }

// Unused is referenced only by its test.
func Unused() int { return 2 }
