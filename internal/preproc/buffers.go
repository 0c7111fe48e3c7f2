package preproc

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Size-classed pools for the two per-sample buffers on the data path:
// raw payload bytes (loading thread -> preprocessing input) and decoded
// Tensors (preprocessing output -> training loop). Classes are powers
// of two by capacity; Get draws from the smallest class that fits and
// every pooled buffer is allocated at exactly its class capacity, so a
// recycled buffer always satisfies the class it is filed under.
//
// Ownership rules (DESIGN.md §12): a buffer may be recycled only by the
// party that holds its sole reference. Payloads the node cache retained
// are leased to the decode (Job.Owner) and recycled by the cache; the
// loading path marks the exclusively-owned ones with Job.Owned and the
// preprocessing worker recycles those after decode. Tensors are owned by the training loop
// once delivered; it returns them with PutTensor after consuming the
// batch.

// numSizeClasses covers buffers up to 2^27 = 128 MiB; anything larger
// falls through to the garbage collector.
const numSizeClasses = 28

var (
	payloadPools [numSizeClasses]sync.Pool // of *byte (class-capacity arrays)
	tensorPools  [numSizeClasses]sync.Pool // of *Tensor (class-capacity Data)
)

// sizeClass returns the pool index whose capacity (1<<class) is the
// smallest power of two >= n.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// capClass returns the class a capacity files under, or -1 when the
// capacity is not an exact class size (only class-sized buffers are
// poolable; anything else is left to the garbage collector).
func capClass(c int) int {
	if c <= 0 || c&(c-1) != 0 {
		return -1
	}
	k := bits.Len(uint(c)) - 1
	if k >= numSizeClasses {
		return -1
	}
	return k
}

// GetPayloadBuf leases a payload buffer of length n from the
// size-classed pool. The buffer's contents are arbitrary; callers
// overwrite every byte (dataset.FillPayload, wire decode).
func GetPayloadBuf(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := sizeClass(n)
	if c < numSizeClasses {
		if v := payloadPools[c].Get(); v != nil {
			// Pooled as a *byte to keep the pool's interface word
			// pointer-shaped (no allocation on Put); the class invariant
			// restores len and cap.
			return unsafe.Slice(v.(*byte), 1<<c)[:n]
		}
		return make([]byte, n, 1<<c)
	}
	return make([]byte, n)
}

// PutPayloadBuf recycles a payload buffer previously leased from
// GetPayloadBuf. The caller must hold the buffer's only reference; its
// contents become invalid immediately. Buffers whose capacity is not an
// exact class size are dropped for the GC.
func PutPayloadBuf(b []byte) {
	k := capClass(cap(b))
	if k < 0 {
		return
	}
	payloadPools[k].Put(unsafe.SliceData(b[:1]))
}

// getTensor leases a tensor whose Data has length n, drawing from the
// size-classed pool when a recycled tensor of the right class exists.
func getTensor(n int) *Tensor {
	c := sizeClass(n)
	if c < numSizeClasses {
		if v := tensorPools[c].Get(); v != nil {
			t := v.(*Tensor)
			t.Data = t.Data[:n]
			return t
		}
		return &Tensor{Data: make([]float32, n, 1<<c)}
	}
	return &Tensor{Data: make([]float32, n)}
}

// PutTensor returns a decoded tensor to the size-classed pool for
// reuse. The caller must be done with the tensor — its ID, Checksum and
// Data become invalid immediately. Tensors whose Data capacity is not
// an exact class size (or nil tensors) are dropped for the GC.
func PutTensor(t *Tensor) {
	if t == nil {
		return
	}
	if capClass(cap(t.Data)) < 0 {
		return
	}
	tensorPools[capClass(cap(t.Data))].Put(t)
}
