package transport

import (
	"os"
	"strconv"
	"strings"
)

// Dropped reports how many datagrams the kernel has dropped at this
// socket because its receive buffer was full: the drops column of
// /proc/net/udp (and udp6) for the bound port. It reads 0 where the
// table cannot be read.
func (e *Endpoint) Dropped() int64 {
	var n int64
	for _, table := range []string{"/proc/net/udp", "/proc/net/udp6"} {
		if data, err := os.ReadFile(table); err == nil {
			n += udpDrops(string(data), e.LocalAddr().Port)
		}
	}
	return n
}

// udpDrops sums the drops column over the rows of a /proc/net/udp table
// whose local port is port. The columns are "sl local_address
// rem_address ... drops", addresses as hex "ADDR:PORT"; rows that do
// not parse count for nothing.
func udpDrops(table string, port int) int64 {
	var n int64
	for _, row := range strings.Split(table, "\n") {
		f := strings.Fields(row)
		if len(f) < 3 {
			continue
		}
		_, hexPort, _ := strings.Cut(f[1], ":")
		if p, err := strconv.ParseUint(hexPort, 16, 16); err != nil || int(p) != port {
			continue
		}
		if d, err := strconv.ParseInt(f[len(f)-1], 10, 64); err == nil {
			n += d
		}
	}
	return n
}
