// Package preproc implements the data preprocessing stage of the training
// pipeline (Figure 1): decoding, augmentation, and batching.
//
// Two layers live here. First, a real CPU kernel that the online runtime
// executes on actual payload bytes — a stand-in for JPEG decode and image
// augmentation with the property that matters: cost proportional to sample
// bytes, with a streaming memory access pattern. Second, the roofline
// throughput model of Observation 3: preprocessing throughput rises with
// threads until memory bandwidth saturates (~6 threads in the paper's
// Figure 6), then flattens and slightly degrades.
package preproc

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/dataset"
)

// Tensor is a decoded training sample ready for augmentation/batching.
type Tensor struct {
	ID   dataset.SampleID
	Data []float32
	// Checksum is the chain sum = sum*31 + b over the payload body bytes
	// (flip and jitter do not change it), used by integration tests to
	// verify end-to-end integrity (and to keep the compiler from eliding
	// the decode work in benchmarks).
	Checksum uint64
}

// decodeTable maps a payload byte to its decoded value: a normalized
// float with a nonlinearity, like a decode+normalize step would produce.
// The per-element arithmetic runs once per byte value here, so the
// kernel's cost per payload byte is a load, a table lookup and a store
// (DESIGN.md §6).
var decodeTable = func() (tab [256]float32) {
	for b := range tab {
		v := float32(b)/255*2 - 1
		v = v * (1 - v*v/3)
		tab[b] = v
	}
	return tab
}()

// Decode turns a raw payload into a Tensor. It validates the payload
// header (id + length), expands each body byte to a float32 through
// decodeTable and folds the bytes into the checksum — a streaming pass
// over the sample, the property JPEG decode has in the real pipeline.
func Decode(payload []byte, want dataset.SampleID) (*Tensor, error) {
	body, err := payloadBody(payload, want)
	if err != nil {
		return nil, err
	}
	// Tensors come from the size-classed pool; the training loop returns
	// them with PutTensor once the batch is consumed (DESIGN.md §12).
	t := getTensor(len(body))
	t.ID = want
	t.Checksum = decodeInto(t.Data, body, noJitter, false)
	return t, nil
}

// noJitter is -0, the float32 whose addition leaves every value's bits
// as they are (adding +0 would turn a -0 into +0).
var noJitter = math.Float32frombits(1 << 31)

// Augment applies deterministic-by-seed augmentation in place: a random
// horizontal flip and a brightness jitter, in one streaming pass over the
// tensor.
func Augment(t *Tensor, seed uint64) {
	d := t.Data
	jitter := augmentJitter(seed)
	if !augmentFlips(seed) {
		for i := range d {
			d[i] += jitter
		}
		return
	}
	i, j := 0, len(d)-1
	for ; i < j; i, j = i+1, j-1 {
		d[i], d[j] = d[j]+jitter, d[i]+jitter
	}
	if i == j {
		d[i] += jitter
	}
}

func augmentFlips(seed uint64) bool { return seed&1 == 1 }

func augmentJitter(seed uint64) float32 { return float32((seed>>1)%100)/1000 - 0.05 }

// decodeAugment is Decode followed by Augment, with the augment folded
// into the decode, which is what the pool's workers run: each element is
// decodeTable[b]+jitter (the same float32 add Augment performs) stored at
// its flipped index, so the tensor is written once instead of three times
// and is bit-identical to the two-step result.
func decodeAugment(payload []byte, want dataset.SampleID, seed uint64) (*Tensor, error) {
	body, err := payloadBody(payload, want)
	if err != nil {
		return nil, err
	}
	t := getTensor(len(body))
	t.ID = want
	t.Checksum = decodeInto(t.Data, body, augmentJitter(seed), augmentFlips(seed))
	return t, nil
}

// payloadBody validates the payload header against the expected sample
// id and the payload's own length, and returns the bytes after it.
func payloadBody(payload []byte, want dataset.SampleID) ([]byte, error) {
	if len(payload) < dataset.PayloadHeaderSize {
		return nil, fmt.Errorf("preproc: payload of %d bytes shorter than header", len(payload))
	}
	id := dataset.SampleID(binary.LittleEndian.Uint32(payload[0:4]))
	if id != want {
		return nil, fmt.Errorf("preproc: payload header id %d, want %d", id, want)
	}
	length := binary.LittleEndian.Uint64(payload[4:12])
	if length != uint64(len(payload)) {
		return nil, fmt.Errorf("preproc: payload header length %d, actual %d", length, len(payload))
	}
	return payload[dataset.PayloadHeaderSize:], nil
}

// The checksum is the chain sum = sum*31 + b over the body bytes. Eight
// steps of it are sum*31^8 + (b0*31^7 + ... + b7), exact mod 2^64, so
// chainSum advances it one word at a time.
const (
	pow31x2 = 31 * 31
	pow31x4 = pow31x2 * pow31x2
	pow31x8 = pow31x4 * pow31x4
)

// fold8 returns b0*31^7 + b1*31^6 + ... + b7 for the bytes b0..b7 of the
// little-endian word w, by pairwise combination inside the word: four
// 16-bit lanes of b*31 + b' (at most 8160), two 32-bit lanes, then one
// sum. No lane overflows, so the result is exact.
func fold8(w uint64) uint64 {
	const lanes8, lanes16 = 0x00ff00ff00ff00ff, 0x0000ffff0000ffff
	w = (w&lanes8)*31 + (w>>8)&lanes8
	w = (w&lanes16)*pow31x2 + (w>>16)&lanes16
	return (w&0xffffffff)*pow31x4 + w>>32
}

// chainSum continues the checksum chain sum over body, a word at a time
// and then byte by byte.
func chainSum(sum uint64, body []byte) uint64 {
	i := 0
	for ; i+8 <= len(body); i += 8 {
		sum = sum*pow31x8 + fold8(binary.LittleEndian.Uint64(body[i:]))
	}
	for ; i < len(body); i++ {
		sum = sum*31 + uint64(body[i])
	}
	return sum
}

// decodeInto is the decode kernel: it stores decodeTable[b]+jitter for
// every byte b of body into dst (reversed when flip is set) and returns
// the checksum of body. With AVX-512 VBMI the whole 64-byte blocks take
// one pass through decodeBlocksAVX512, which decodes each block and
// folds it into eight checksum lanes: lane m is the chain of word m of
// every block, stepped by 31^64 per block, and word m of the last block
// is 7-m words from the end, so the lanes in order combine as eight word
// steps. The bytes past the last block continue here.
//
//lint:hotpath once per sample on every preprocessing worker; TestBatchedSteadyStateDoesNotAllocate pins 0 allocs/op
func decodeInto(dst []float32, body []byte, jitter float32, flip bool) uint64 {
	n := len(body)
	dst = dst[:n]
	if !useAVX512 || n < 64 {
		return decodePortable(dst, body, jitter, flip)
	}
	whole := n &^ 63
	var acc [8]uint64
	decodeBlocksAVX512(dst, body[:whole], jitter, flip, &acc)
	var sum uint64
	for _, a := range acc {
		sum = sum*pow31x8 + a
	}
	for i := whole; i < n; i++ {
		j := i
		if flip {
			j = n - 1 - i
		}
		dst[j] = decodeTable[body[i]] + jitter
	}
	return chainSum(sum, body[whole:])
}

// decodePortable is decodeInto in Go, the path off amd64 and on CPUs
// without AVX-512 VBMI: the jitter goes into a stack copy of decodeTable
// (256 adds), then a table pass stores 16 elements per bounds check and a
// second pass sums the body.
//
//lint:hotpath once per sample on every preprocessing worker without AVX-512 VBMI
func decodePortable(dst []float32, body []byte, jitter float32, flip bool) uint64 {
	var tab [256]float32
	for b, v := range &decodeTable {
		tab[b] = v + jitter
	}
	n := len(body)
	i := 0
	if flip {
		for ; i+16 <= n; i += 16 {
			b := body[i : i+16 : i+16]
			d := dst[n-16-i : n-i : n-i]
			d[15] = tab[b[0]]
			d[14] = tab[b[1]]
			d[13] = tab[b[2]]
			d[12] = tab[b[3]]
			d[11] = tab[b[4]]
			d[10] = tab[b[5]]
			d[9] = tab[b[6]]
			d[8] = tab[b[7]]
			d[7] = tab[b[8]]
			d[6] = tab[b[9]]
			d[5] = tab[b[10]]
			d[4] = tab[b[11]]
			d[3] = tab[b[12]]
			d[2] = tab[b[13]]
			d[1] = tab[b[14]]
			d[0] = tab[b[15]]
		}
		for ; i < n; i++ {
			dst[n-1-i] = tab[body[i]]
		}
		return chainSum(0, body)
	}
	for ; i+16 <= n; i += 16 {
		b := body[i : i+16 : i+16]
		d := dst[i : i+16 : i+16]
		d[0] = tab[b[0]]
		d[1] = tab[b[1]]
		d[2] = tab[b[2]]
		d[3] = tab[b[3]]
		d[4] = tab[b[4]]
		d[5] = tab[b[5]]
		d[6] = tab[b[6]]
		d[7] = tab[b[7]]
		d[8] = tab[b[8]]
		d[9] = tab[b[9]]
		d[10] = tab[b[10]]
		d[11] = tab[b[11]]
		d[12] = tab[b[12]]
		d[13] = tab[b[13]]
		d[14] = tab[b[14]]
		d[15] = tab[b[15]]
	}
	for ; i < n; i++ {
		dst[i] = tab[body[i]]
	}
	return chainSum(0, body)
}
