// Package wire is the canonical binary codec for the protocol's
// message vocabulary (transport.Message): what the socket transports
// put on the network. The in-memory transport never serializes — this
// codec exists so a message means the same thing on every medium.
//
// Frame layout (length-prefixed so a stream carries a message
// sequence):
//
//	uint32 big-endian    body length (bounded by the reader's max)
//	body:
//	  byte               magic 0xB7
//	  byte               version (currently 1)
//	  byte               kind (transport.Kind)
//	  byte               flags (flagTasks | flagBlob)
//	  int32 LE ×4        From, To, A, B
//	  [flagTasks]        task block: uvarint count, then per task the
//	                     zigzag varints Origin, Hops, Birth, Weight,
//	                     Remaining
//	  [flagBlob]         uvarint length + opaque bytes
//
// The decoder is strict: unknown versions, unknown flag bits, kinds
// outside the vocabulary, task blocks on anything but a transfer, and
// trailing bytes are all errors (and never panics — FuzzWireCodec
// holds it to that). Error messages name kinds via Kind.String().
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"plb/internal/task"
	"plb/internal/transport"
)

// Version is the codec version written into every frame header.
const Version = 1

const magic = 0xB7

const (
	flagTasks = 1 << 0
	flagBlob  = 1 << 1
	flagKnown = flagTasks | flagBlob
)

// DefaultMaxFrame is the frame-body bound readers use unless told
// otherwise: generous for task blocks and status documents, small
// enough that a corrupt length prefix cannot balloon memory.
const DefaultMaxFrame = 1 << 20

const headerLen = 4 + 4*4 // magic/version/kind/flags + From/To/A/B

// AppendMessage appends m's encoded body (without the length prefix)
// to dst and returns the extended slice.
func AppendMessage(dst []byte, m transport.Message) ([]byte, error) {
	if m.Kind == 0 || m.Kind >= transport.KindMax {
		return nil, fmt.Errorf("wire: cannot encode %s message (kind out of vocabulary)", m.Kind)
	}
	if len(m.Tasks) > 0 && m.Kind != transport.KindTransfer {
		return nil, fmt.Errorf("wire: task block on %s message (tasks ride transfers only)", m.Kind)
	}
	var flags byte
	if len(m.Tasks) > 0 {
		flags |= flagTasks
	}
	if len(m.Blob) > 0 {
		flags |= flagBlob
	}
	dst = append(dst, magic, Version, byte(m.Kind), flags)
	var w [4]byte
	for _, v := range [...]int32{m.From, m.To, m.A, m.B} {
		binary.LittleEndian.PutUint32(w[:], uint32(v))
		dst = append(dst, w[:]...)
	}
	if flags&flagTasks != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(m.Tasks)))
		for _, t := range m.Tasks {
			dst = binary.AppendVarint(dst, int64(t.Origin))
			dst = binary.AppendVarint(dst, int64(t.Hops))
			dst = binary.AppendVarint(dst, t.Birth)
			dst = binary.AppendVarint(dst, int64(t.Weight))
			dst = binary.AppendVarint(dst, int64(t.Remaining))
		}
	}
	if flags&flagBlob != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(m.Blob)))
		dst = append(dst, m.Blob...)
	}
	return dst, nil
}

// DecodeMessage decodes one frame body produced by AppendMessage. It
// never panics on malformed input; every violation is an error.
func DecodeMessage(body []byte) (transport.Message, error) {
	var m transport.Message
	if len(body) < headerLen {
		return m, fmt.Errorf("wire: body %d bytes, header needs %d", len(body), headerLen)
	}
	if body[0] != magic {
		return m, fmt.Errorf("wire: bad magic %#02x", body[0])
	}
	if body[1] != Version {
		return m, fmt.Errorf("wire: version %d, this codec speaks %d", body[1], Version)
	}
	kind := transport.Kind(body[2])
	if kind == 0 || kind >= transport.KindMax {
		return m, fmt.Errorf("wire: %s out of vocabulary [1, %d)", kind, uint8(transport.KindMax))
	}
	flags := body[3]
	if flags&^byte(flagKnown) != 0 {
		return m, fmt.Errorf("wire: unknown flag bits %#02x on %s message", flags&^byte(flagKnown), kind)
	}
	m.Kind = kind
	m.From = int32(binary.LittleEndian.Uint32(body[4:]))
	m.To = int32(binary.LittleEndian.Uint32(body[8:]))
	m.A = int32(binary.LittleEndian.Uint32(body[12:]))
	m.B = int32(binary.LittleEndian.Uint32(body[16:]))
	rest := body[headerLen:]
	if flags&flagTasks != 0 {
		if kind != transport.KindTransfer {
			return m, fmt.Errorf("wire: task block on %s message (tasks ride transfers only)", kind)
		}
		count, n := binary.Uvarint(rest)
		if n <= 0 {
			return m, fmt.Errorf("wire: truncated task count on %s message", kind)
		}
		rest = rest[n:]
		// Five varints of at least one byte each per task: a count the
		// remaining bytes cannot hold is corrupt, not a big block.
		if count > uint64(len(rest)/5)+1 {
			return m, fmt.Errorf("wire: task count %d exceeds %d remaining bytes", count, len(rest))
		}
		if count > 0 {
			m.Tasks = make([]task.Task, count)
			for i := range m.Tasks {
				t := &m.Tasks[i]
				var err error
				if t.Origin, rest, err = readVarint32(rest, "task origin"); err != nil {
					return m, err
				}
				if t.Hops, rest, err = readVarint32(rest, "task hops"); err != nil {
					return m, err
				}
				var n int
				t.Birth, n = binary.Varint(rest)
				if n <= 0 {
					return m, fmt.Errorf("wire: truncated task birth")
				}
				rest = rest[n:]
				if t.Weight, rest, err = readVarint32(rest, "task weight"); err != nil {
					return m, err
				}
				if t.Remaining, rest, err = readVarint32(rest, "task remaining"); err != nil {
					return m, err
				}
			}
		}
	}
	if flags&flagBlob != 0 {
		blobLen, n := binary.Uvarint(rest)
		if n <= 0 {
			return m, fmt.Errorf("wire: truncated blob length on %s message", kind)
		}
		rest = rest[n:]
		if blobLen > uint64(len(rest)) {
			return m, fmt.Errorf("wire: blob length %d exceeds %d remaining bytes", blobLen, len(rest))
		}
		if blobLen > 0 {
			m.Blob = append([]byte(nil), rest[:blobLen]...)
		}
		rest = rest[blobLen:]
	}
	if len(rest) != 0 {
		return m, fmt.Errorf("wire: %d trailing bytes after %s message", len(rest), kind)
	}
	return m, nil
}

// readVarint32 reads one zigzag varint that must fit an int32.
func readVarint32(b []byte, what string) (int32, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, b, fmt.Errorf("wire: truncated %s", what)
	}
	if v < -1<<31 || v > 1<<31-1 {
		return 0, b, fmt.Errorf("wire: %s %d overflows int32", what, v)
	}
	return int32(v), b[n:], nil
}

// ReadFrame reads one length-prefixed frame and decodes it. max bounds
// the body length (0 means DefaultMaxFrame); an oversized prefix is an
// error before any allocation.
func ReadFrame(r io.Reader, max int) (transport.Message, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return transport.Message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > uint32(max) {
		return transport.Message{}, fmt.Errorf("wire: frame body %d exceeds limit %d", n, max)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return transport.Message{}, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return DecodeMessage(body)
}
