package main

// The reference kernel is FROZEN. Every normalised CPU time the
// benchmark reports is a raw time divided by this kernel's median time
// in the same run, so editing the kernel (its work, its sizes, its
// constants) rescales every reported number and breaks comparison with
// earlier runs. It is pure Go and allocation-free after construction,
// and mixes the operations the toolkit itself spends its time on:
// byte scanning, hashing, map lookups and small sorts.

const (
	kernelBytes  = 16 << 10
	kernelPasses = 30
	kernelKeys   = 1024
	kernelSort   = 256
)

// refKernel holds the kernel's preallocated state.
type refKernel struct {
	buf  []byte
	m    map[uint32]uint32
	keys []uint32
	work []uint32
	sink uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		buf:  make([]byte, kernelBytes),
		m:    make(map[uint32]uint32, kernelKeys),
		keys: make([]uint32, kernelKeys),
		work: make([]uint32, kernelSort),
	}
	x := uint32(2463534242)
	for i := range k.buf {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		k.buf[i] = byte(x)
	}
	for i := range k.keys {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		k.keys[i] = x
		k.m[x] = uint32(i)
	}
	return k
}

// run performs one fixed unit of work.
func (k *refKernel) run() {
	var acc uint64
	for p := 0; p < kernelPasses; p++ {
		// FNV-1a over the buffer, splitting at NUL-like bytes the way a
		// C-string scan does.
		h := uint64(14695981039346656037) + uint64(p)
		for _, b := range k.buf {
			if b == 0 {
				acc += h
			}
			h ^= uint64(b)
			h *= 1099511628211
		}
		acc += h
		for _, key := range k.keys {
			acc += uint64(k.m[key^uint32(p&1)])
		}
		for i := range k.work {
			k.work[i] = k.keys[(i*7+p)%kernelKeys]
		}
		for i := 1; i < len(k.work); i++ {
			v := k.work[i]
			j := i - 1
			for j >= 0 && k.work[j] > v {
				k.work[j+1] = k.work[j]
				j--
			}
			k.work[j+1] = v
		}
		acc += uint64(k.work[len(k.work)/2])
	}
	k.sink += acc
}
