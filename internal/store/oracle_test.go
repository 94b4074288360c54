package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
)

// checksumLine is the record framing as the writer did it before it
// built records in place (sealLine), kept verbatim: the tests that forge
// valid lines use it, and TestRecordedBytesUnchanged holds the writer to
// it byte for byte.
func checksumLine(body []byte) []byte {
	out := make([]byte, 0, len(body)+10)
	out = fmt.Appendf(out, "%08x ", crc32.ChecksumIEEE(body))
	out = append(out, body...)
	return append(out, '\n')
}

// oracleSnapshotsRaw is Run.SnapshotsRaw's log walk as it stood before it
// stripped checksums in place, kept verbatim but for the name and the
// error wrapping: bytes.Split into lines, each body copied into a second
// buffer.
func oracleSnapshotsRaw(data []byte, version int) ([]byte, error) {
	var out bytes.Buffer
	out.Grow(len(data))
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		body, err := parseLine(line, version)
		if err != nil {
			return nil, err
		}
		out.Write(body)
		out.WriteByte('\n')
	}
	return out.Bytes(), nil
}
