//go:build !linux

package transport

import (
	"errors"
	"net/netip"
)

// segmentOOB returns nil: no segmentation offload on this platform, so
// WriteSegments is a loop over Write from the first call.
func segmentOOB() []byte { return nil }

func (e *Endpoint) writeSegmented([]byte, int, netip.AddrPort) error { return errors.ErrUnsupported }
