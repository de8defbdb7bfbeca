//go:build !amd64 || amd64.v3

package diffcheck

const goldenBitsComparable = false
