package cellcache

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
)

// Every value an engine stores is framed with a self-describing
// header, so an entry carries its own codec identity and expiry and
// can never be misread by a cache configured differently from the one
// that wrote it (a gzip-written entry read by a compression-off cache
// still decompresses; a plain entry read by a gzip cache is served
// as-is):
//
//	"sce3" | codec u8 | expiry u64 (unix nanoseconds, 0 = never) | bodyLen u32 | body
//
// little-endian. The magic doubles as the stored-entry version: any
// other magic — v1's bare payloads, v2's "sce2" frames — fails the
// check and reads as a miss, so the cell re-simulates. Those entries
// were stored under older fingerprint versions, whose keys current
// lookups never produce anyway. The body is the serialized
// SweepResult bytes, compressed per the codec byte.
//
// The explicit body length detects a frame cut short by a torn or
// interrupted write at the Cache layer even for uncompressed payloads
// (gzip carries its own footer; raw bytes have no other way to prove
// they are whole).
const (
	frameMagic = "sce3"
	frameHdr   = 4 + 1 + 8 + 4

	// Codec identities, stable on disk. New codecs append; never
	// renumber.
	CodecRaw  byte = 0
	CodecGzip byte = 1
)

// ParseCodec maps an engine-spec compress= value to a codec identity.
func ParseCodec(name string) (byte, error) {
	switch name {
	case "", "none", "raw":
		return CodecRaw, nil
	case "gzip":
		return CodecGzip, nil
	default:
		return 0, fmt.Errorf("unknown compression codec %q (want none or gzip)", name)
	}
}

// CodecName is ParseCodec's inverse, for metrics and logs.
func CodecName(c byte) string {
	if c == CodecGzip {
		return "gzip"
	}
	return "none"
}

// encodeFrame frames payload under codec with the given expiry,
// compressing the payload when the codec calls for it.
func encodeFrame(codec byte, expiry int64, payload []byte) ([]byte, error) {
	body := payload
	if codec == CodecGzip {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(payload); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
		body = buf.Bytes()
	}
	frame := make([]byte, frameHdr+len(body))
	copy(frame, frameMagic)
	frame[4] = codec
	binary.LittleEndian.PutUint64(frame[5:13], uint64(expiry))
	binary.LittleEndian.PutUint32(frame[13:17], uint32(len(body)))
	copy(frame[frameHdr:], body)
	return frame, nil
}

// frameExpiry reads just the expiry from a frame header, without
// touching (or decompressing) the payload — the startup TTL scan's
// fast path.
func frameExpiry(frame []byte) (int64, bool) {
	if len(frame) < frameHdr || string(frame[:4]) != frameMagic {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(frame[5:13])), true
}

// decodeFrame validates the header and returns the decompressed
// payload. The codec comes from the frame, not from configuration.
// For CodecRaw the payload aliases the frame's backing array (zero
// copy on the hot path). A frame whose body is shorter than its
// declared length — a torn write — is an error, which the Cache turns
// into a dropped entry and a recompute; so is a frame with any other
// magic.
func decodeFrame(frame []byte) (payload []byte, expiry int64, codec byte, err error) {
	if len(frame) < frameHdr || string(frame[:4]) != frameMagic {
		return nil, 0, 0, fmt.Errorf("not a framed cache entry")
	}
	body := frame[frameHdr:]
	if want := binary.LittleEndian.Uint32(frame[13:17]); uint32(len(body)) != want {
		return nil, 0, 0, fmt.Errorf("torn cache entry: %d body bytes, header says %d", len(body), want)
	}
	codec = frame[4]
	expiry = int64(binary.LittleEndian.Uint64(frame[5:13]))
	switch codec {
	case CodecRaw:
		return body, expiry, codec, nil
	case CodecGzip:
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			return nil, 0, 0, err
		}
		payload, err = io.ReadAll(io.LimitReader(zr, maxValLen+1))
		if cerr := zr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, 0, 0, err
		}
		if len(payload) > maxValLen {
			return nil, 0, 0, fmt.Errorf("decompressed cache entry exceeds %d bytes", maxValLen)
		}
		return payload, expiry, codec, nil
	default:
		return nil, 0, 0, fmt.Errorf("unknown cache entry codec %d", codec)
	}
}
