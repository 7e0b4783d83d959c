package ws

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
)

// clientFrame encodes one client-to-server frame, masked with a fixed key.
func clientFrame(fin bool, op Opcode, payload []byte) []byte {
	b0 := byte(op)
	if fin {
		b0 |= 0x80
	}
	out := []byte{b0}
	switch l := len(payload); {
	case l < 126:
		out = append(out, 0x80|byte(l))
	case l < 1<<16:
		out = append(out, 0x80|126)
		out = binary.BigEndian.AppendUint16(out, uint16(l))
	default:
		out = append(out, 0x80|127)
		out = binary.BigEndian.AppendUint64(out, uint64(l))
	}
	mask := [4]byte{0x37, 0xfa, 0x21, 0x3d}
	out = append(out, mask[:]...)
	for i, c := range payload {
		out = append(out, c^mask[i%4])
	}
	return out
}

// FuzzReadFrame feeds arbitrary bytes to a server-side Conn and reads
// messages until the connection fails. Nothing may panic, and no message
// may exceed MaxMessageSize, whatever lengths the frame headers claim.
func FuzzReadFrame(f *testing.F) {
	join := func(frames ...[]byte) []byte {
		var out []byte
		for _, fr := range frames {
			out = append(out, fr...)
		}
		return out
	}
	f.Add(clientFrame(true, OpText, []byte("hello")))
	f.Add(join(
		clientFrame(false, OpText, []byte("frag")),
		clientFrame(true, OpPing, []byte("mid")),
		clientFrame(false, OpContinuation, []byte("ment")),
		clientFrame(true, OpContinuation, []byte("ed")),
	))
	f.Add(join(clientFrame(true, OpPing, []byte("are you there")), clientFrame(true, OpBinary, []byte{0, 1, 2})))
	f.Add(clientFrame(true, OpClose, binary.BigEndian.AppendUint16(nil, CloseNormal)))
	// A 64-bit length header claiming 2^63 bytes, with a mask and no body.
	f.Add(join([]byte{0x80 | byte(OpBinary), 0x80 | 127}, binary.BigEndian.AppendUint64(nil, 1<<63), []byte{1, 2, 3, 4}))

	f.Fuzz(func(t *testing.T, data []byte) {
		server, client := net.Pipe()
		c := &Conn{conn: server, br: bufio.NewReader(server), bw: bufio.NewWriter(server)}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			// All of data is read once Write returns; closing then gives
			// the server EOF. A server that stopped reading early fails
			// this Write when it closes its end.
			_, _ = client.Write(data)
			client.Close()
		}()
		go func() {
			// Drain pongs and close replies so server writes never block.
			defer wg.Done()
			_, _ = io.Copy(io.Discard, client)
		}()
		for {
			_, msg, err := c.NextMessage()
			if err != nil {
				break
			}
			if len(msg) > MaxMessageSize {
				t.Fatalf("message of %d bytes exceeds MaxMessageSize", len(msg))
			}
		}
		server.Close()
		wg.Wait()
	})
}
