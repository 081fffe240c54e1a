//go:build !amd64

package chunk

// useKernel is false where there is no multi-buffer kernel: OfEach is a
// crypto/sha256 loop.
var useKernel = false

func sumLanes(data [][]byte, out []Fingerprint) {
	panic("chunk: no multi-buffer SHA-256 kernel on this architecture")
}
