package store

import (
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
