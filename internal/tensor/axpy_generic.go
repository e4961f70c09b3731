//go:build !amd64

package tensor

// Non-amd64 builds run the pure-Go tails in axpy.go for the full row.
const haveAxpyAsm = false

func axpyRowAsm(dst, src []float32, alpha float32) {
	panic("tensor: axpyRowAsm without assembly support")
}
