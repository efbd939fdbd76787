package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"unsafe"
	"weak"
)

// Wire format: every frame is a u32 little-endian length followed by that
// many bytes: To u64 | Corr u64 | Origin u32 | Kind u8 | Flags u8 | payload.
// The length covers the 22-byte header and the payload, not itself.
const (
	frameHeader = 8 + 8 + 4 + 1 + 1

	// FrameReserve is the room a frame built in place keeps in front of its
	// payload: the length prefix and the header (see NewFrame).
	FrameReserve = 4 + frameHeader

	// DefaultMaxFrame bounds a single frame (bulk handoffs carry whole key
	// ranges, so this is generous). A peer announcing a larger frame is
	// protocol-broken and the connection is dropped rather than trusted
	// with the allocation.
	DefaultMaxFrame = 1 << 26
)

var (
	// ErrFrameTooLarge is returned when a frame announces a length above
	// the configured maximum.
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	// ErrFrameTruncated is returned when a frame is shorter than its own
	// header.
	ErrFrameTruncated = errors.New("transport: truncated frame")
)

// AppendFrame appends m encoded as one frame to dst and returns the
// extended slice.
func AppendFrame(dst []byte, m *Msg) []byte {
	at := len(dst)
	dst = append(dst, make([]byte, FrameReserve)...)
	dst = append(dst, m.Payload...)
	putHeader(dst[at:], m)
	return dst
}

// NewFrame starts a frame built in place: the returned slice holds the
// reserved header room and has capacity for a payload of n bytes. The caller
// appends the payload — never past n, or the append reallocates and the
// point is lost — and hands the slice to (*TCP).SendFrame, which fills the
// header in and queues these very bytes: no copy between encoder and socket.
func NewFrame(n int) []byte {
	return make([]byte, FrameReserve, FrameReserve+n)
}

const (
	// recycleFloor is the smallest frame worth recycling: below it, a fresh
	// buffer costs less than the free list's lock and weak pointer.
	recycleFloor = 4 << 10
	// recycleKeep bounds the free list: about the frames in flight at once.
	recycleKeep = 8
)

// freeFrame is a written frame on the free list: a weak pointer to its
// first byte, so that it holds no memory through a collection, and its size.
type freeFrame struct {
	p   weak.Pointer[byte]
	cap int
}

// frameList is a transport's free list of written frames, a ring whose
// newest entry overwrites its oldest. Every GC clears the weak pointers of
// frames nobody else holds, so live-heap figures never see the list.
type frameList struct {
	mu   sync.Mutex
	ring [recycleKeep]freeFrame
	next int
}

// Frame is NewFrame, from the free list when a written frame of at least
// the size needed is still there: its bytes are whatever was written last,
// so the caller must write every byte of the payload it keeps.
func (t *TCP) Frame(n int) []byte {
	need := FrameReserve + n
	if need < recycleFloor {
		return NewFrame(n)
	}
	l := &t.frames
	l.mu.Lock()
	best := -1
	for i, f := range l.ring {
		if f.cap >= need && (best < 0 || f.cap < l.ring[best].cap) {
			best = i
		}
	}
	var f freeFrame
	if best >= 0 {
		f, l.ring[best] = l.ring[best], freeFrame{}
	}
	l.mu.Unlock()
	if p := f.p.Value(); p != nil {
		return unsafe.Slice(p, f.cap)[:FrameReserve]
	}
	return NewFrame(n)
}

// recycle puts a frame the writer is done with on the free list.
func (l *frameList) recycle(frame []byte) {
	if cap(frame) < recycleFloor {
		return
	}
	f := freeFrame{weak.Make(&frame[:1][0]), cap(frame)}
	l.mu.Lock()
	l.ring[l.next] = f
	l.next = (l.next + 1) % recycleKeep
	l.mu.Unlock()
}

// putHeader fills frame's first FrameReserve bytes from m; everything after
// them is the payload.
func putHeader(frame []byte, m *Msg) {
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(frame)-4))
	binary.LittleEndian.PutUint64(frame[4:], m.To)
	binary.LittleEndian.PutUint64(frame[12:], m.Corr)
	binary.LittleEndian.PutUint32(frame[20:], uint32(m.Origin))
	frame[24], frame[25] = m.Kind, m.Flags
}

// ReadFrame reads one frame from r. maxFrame bounds the announced length
// (0 means DefaultMaxFrame); a malformed or oversized frame returns an
// error without allocating more than the limit. The returned Msg's Payload
// aliases a fresh buffer owned by the caller.
func ReadFrame(r io.Reader, maxFrame int) (*Msg, error) {
	var hdr [FrameReserve]byte
	m := new(Msg)
	if err := readFrame(r, maxFrame, &hdr, m); err != nil {
		return nil, err
	}
	return m, nil
}

// readFrame is ReadFrame into memory the caller owns — hdr is scratch for
// the length prefix and header, m is overwritten — so that a connection's
// reader allocates nothing per frame but the payload.
func readFrame(r io.Reader, maxFrame int, hdr *[FrameReserve]byte, m *Msg) error {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	if n < frameHeader {
		return fmt.Errorf("%w: %d bytes", ErrFrameTruncated, n)
	}
	if n > maxFrame {
		return fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return err
	}
	*m = Msg{
		To:     binary.LittleEndian.Uint64(hdr[4:]),
		Corr:   binary.LittleEndian.Uint64(hdr[12:]),
		Origin: NodeID(binary.LittleEndian.Uint32(hdr[20:])),
		Kind:   hdr[24],
		Flags:  hdr[25],
	}
	if n > frameHeader {
		m.Payload = make([]byte, n-frameHeader)
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			return err
		}
	}
	return nil
}
