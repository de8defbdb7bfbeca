//go:build amd64 && !amd64.v3

package diffcheck

// goldenBitsComparable reports whether this build computes floats as the
// golden digests were recorded: amd64 below GOAMD64=v3 never fuses a
// multiply and an add.
const goldenBitsComparable = true
