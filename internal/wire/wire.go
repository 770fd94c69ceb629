// Package wire defines the binary protocol of the live deployment
// (§5): market data from the CES to the release buffers, trades and
// heartbeats from the RBs to the ordering buffer, retransmission
// requests on the out-of-band repair path, and execution reports.
//
// Every message is a fixed-layout little-endian record with a one-byte
// type tag, sized to fit comfortably in a single UDP datagram. Encoding
// appends to a caller-provided buffer so hot paths stay allocation-free.
package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"dbo/internal/market"
	"dbo/internal/sim"
)

// Type tags.
const (
	TMarketData byte = iota + 1
	TTrade
	THeartbeat
	TRetx
	TClose
	TExec
	TProbe
	TProbeReply
)

// CtxSize is the trailing causal trace context every market-data,
// trade, and heartbeat message carries: origin node id (u32) plus hop
// counter (u16). See market.TraceCtx.
const CtxSize = 4 + 2

// Sizes of the fixed-layout messages (including the type byte).
const (
	MarketDataSize = 1 + 8 + 8 + 1 + 8 + 4 + 8 + 8 + CtxSize
	TradeSize      = 1 + 4 + 8 + 4 + 1 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + CtxSize
	HeartbeatSize  = 1 + 4 + 8 + 8 + 8 + CtxSize
	RetxSize       = 1 + 4 + 8 + 8
	CloseSize      = 1 + 8 + 8 + 4
	ExecSize       = 1 + 8 + 8 + 4 + 4 + 8 + 8 + 8

	// ProbeHeaderSize is a probe's size before its variable padding; a
	// full probe occupies ProbeHeaderSize + len(Pad) bytes.
	ProbeHeaderSize = 1 + 4 + 8 + 8 + 2
	ProbeReplySize  = 1 + 4 + 8 + 8 + 8 + 8
)

// MaxProbePad bounds a probe's padding (it must fit the u16 length
// prefix). Note a maximally padded probe exceeds MaxSize — probes are
// the protocol's only variable-length message.
const MaxProbePad = 1<<16 - 1

// MaxSize is the largest *fixed-layout* message size; receive buffers
// of this size always fit one fixed message and are grown on demand by
// the only variable-length message, the RTT probe.
const MaxSize = TradeSize

var le = binary.LittleEndian

// appendCtx encodes the trailing causal trace context.
func appendCtx(buf []byte, c market.TraceCtx) []byte {
	buf = le.AppendUint32(buf, uint32(c.Origin))
	return le.AppendUint16(buf, c.Hop)
}

// ctxAt decodes a trace context at offset off (the caller has already
// length-checked the message).
func ctxAt(buf []byte, off int) market.TraceCtx {
	return market.TraceCtx{
		Origin: market.NodeID(le.Uint32(buf[off:])),
		Hop:    le.Uint16(buf[off+4:]),
	}
}

// AppendMarketData encodes a data point.
func AppendMarketData(buf []byte, dp market.DataPoint) []byte {
	buf = append(buf, TMarketData)
	buf = le.AppendUint64(buf, uint64(dp.ID))
	buf = le.AppendUint64(buf, uint64(dp.Batch))
	flags := byte(0)
	if dp.Last {
		flags |= 1
	}
	if dp.BidSide {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = le.AppendUint64(buf, uint64(dp.Gen))
	buf = le.AppendUint32(buf, dp.Symbol)
	buf = le.AppendUint64(buf, uint64(dp.Price))
	buf = le.AppendUint64(buf, uint64(dp.Qty))
	return appendCtx(buf, dp.Ctx)
}

// AppendTrade encodes a (tagged) trade.
func AppendTrade(buf []byte, t *market.Trade) []byte {
	buf = append(buf, TTrade)
	buf = le.AppendUint32(buf, uint32(t.MP))
	buf = le.AppendUint64(buf, uint64(t.Seq))
	buf = le.AppendUint32(buf, t.Symbol)
	buf = append(buf, byte(t.Side))
	buf = le.AppendUint64(buf, uint64(t.Price))
	buf = le.AppendUint64(buf, uint64(t.Qty))
	buf = le.AppendUint64(buf, uint64(t.Trigger))
	buf = le.AppendUint64(buf, uint64(t.Submitted))
	buf = le.AppendUint64(buf, uint64(t.RT))
	buf = le.AppendUint64(buf, uint64(t.DC.Point))
	buf = le.AppendUint64(buf, uint64(t.DC.Elapsed))
	return appendCtx(buf, t.Ctx)
}

// AppendHeartbeat encodes a heartbeat.
func AppendHeartbeat(buf []byte, h market.Heartbeat) []byte {
	buf = append(buf, THeartbeat)
	buf = le.AppendUint32(buf, uint32(h.MP))
	buf = le.AppendUint64(buf, uint64(h.DC.Point))
	buf = le.AppendUint64(buf, uint64(h.DC.Elapsed))
	buf = le.AppendUint64(buf, uint64(h.Sent))
	return appendCtx(buf, h.Ctx)
}

// Retx is a retransmission request (Appendix D).
type Retx struct {
	MP       market.ParticipantID
	From, To market.PointID
}

// AppendRetx encodes a retransmission request.
func AppendRetx(buf []byte, r Retx) []byte {
	buf = append(buf, TRetx)
	buf = le.AppendUint32(buf, uint32(r.MP))
	buf = le.AppendUint64(buf, uint64(r.From))
	buf = le.AppendUint64(buf, uint64(r.To))
	return buf
}

// Close is a batch close marker for aperiodic feeds.
type Close struct {
	Batch market.BatchID
	Final market.PointID
	Count uint32
}

// AppendClose encodes a close marker.
func AppendClose(buf []byte, c Close) []byte {
	buf = append(buf, TClose)
	buf = le.AppendUint64(buf, uint64(c.Batch))
	buf = le.AppendUint64(buf, uint64(c.Final))
	buf = le.AppendUint32(buf, c.Count)
	return buf
}

// Exec is an execution report from the matching engine.
type Exec struct {
	Maker, Taker           uint64
	MakerOwner, TakerOwner int32
	Price, Qty             int64
	Seq                    uint64
}

// AppendExec encodes an execution report.
func AppendExec(buf []byte, e Exec) []byte {
	buf = append(buf, TExec)
	buf = le.AppendUint64(buf, e.Maker)
	buf = le.AppendUint64(buf, e.Taker)
	buf = le.AppendUint32(buf, uint32(e.MakerOwner))
	buf = le.AppendUint32(buf, uint32(e.TakerOwner))
	buf = le.AppendUint64(buf, uint64(e.Price))
	buf = le.AppendUint64(buf, uint64(e.Qty))
	buf = le.AppendUint64(buf, e.Seq)
	return buf
}

// Probe is a TWAMP-light RTT probe (CES → MP). T1 is the sender's send
// timestamp on its own clock; Pad optionally inflates the datagram so
// probes share the market-data path's size-dependent behavior.
type Probe struct {
	MP  market.ParticipantID
	Seq uint64
	T1  sim.Time
	Pad []byte
}

// ProbeReply is the reflected probe (MP → CES): T1 is echoed, T2/T3 are
// the reflector's receive and transmit timestamps on its own clock, so
// the prober computes RTT = (T4−T1) − (T3−T2) without any clock sync.
type ProbeReply struct {
	MP         market.ParticipantID
	Seq        uint64
	T1, T2, T3 sim.Time
}

// AppendProbe encodes a probe. Panics if the padding exceeds
// MaxProbePad — a static protocol limit, not a runtime condition.
func AppendProbe(buf []byte, p Probe) []byte {
	if len(p.Pad) > MaxProbePad {
		panic(fmt.Sprintf("wire: probe pad %d exceeds %d", len(p.Pad), MaxProbePad))
	}
	buf = append(buf, TProbe)
	buf = le.AppendUint32(buf, uint32(p.MP))
	buf = le.AppendUint64(buf, p.Seq)
	buf = le.AppendUint64(buf, uint64(p.T1))
	buf = le.AppendUint16(buf, uint16(len(p.Pad)))
	return append(buf, p.Pad...)
}

// AppendProbeReply encodes a probe reply.
func AppendProbeReply(buf []byte, r ProbeReply) []byte {
	buf = append(buf, TProbeReply)
	buf = le.AppendUint32(buf, uint32(r.MP))
	buf = le.AppendUint64(buf, r.Seq)
	buf = le.AppendUint64(buf, uint64(r.T1))
	buf = le.AppendUint64(buf, uint64(r.T2))
	buf = le.AppendUint64(buf, uint64(r.T3))
	return buf
}

// Msg is a decoded message without interface boxing: Type holds the
// wire tag and exactly one matching field is meaningful. Receive loops
// keep one Msg per connection and call DecodeInto so the steady state
// is allocation-free; Decode remains the boxing convenience wrapper.
type Msg struct {
	Type       byte
	Data       market.DataPoint
	Trade      market.Trade
	Heartbeat  market.Heartbeat
	Retx       Retx
	Close      Close
	Exec       Exec
	Probe      Probe // Pad reuses the Msg's own storage, never aliasing the input
	ProbeReply ProbeReply
}

// DecodeTradeInto parses a TTrade message into t without allocating,
// so pooled trades can be refilled straight off the wire.
func DecodeTradeInto(t *market.Trade, buf []byte) error {
	if len(buf) == 0 || buf[0] != TTrade {
		return fmt.Errorf("wire: not a trade message")
	}
	if len(buf) < TradeSize {
		return fmt.Errorf("wire: trade truncated: %d bytes", len(buf))
	}
	t.MP = market.ParticipantID(le.Uint32(buf[1:]))
	t.Seq = market.TradeSeq(le.Uint64(buf[5:]))
	t.Symbol = le.Uint32(buf[13:])
	t.Side = market.Side(buf[17])
	t.Price = int64(le.Uint64(buf[18:]))
	t.Qty = int64(le.Uint64(buf[26:]))
	t.Trigger = market.PointID(le.Uint64(buf[34:]))
	t.Submitted = sim.Time(le.Uint64(buf[42:]))
	t.RT = sim.Time(le.Uint64(buf[50:]))
	t.DC = market.DeliveryClock{
		Point:   market.PointID(le.Uint64(buf[58:])),
		Elapsed: sim.Time(le.Uint64(buf[66:])),
	}
	t.Ctx = ctxAt(buf, 74)
	return nil
}

// DecodeInto parses one message into m without allocating. On error m
// is unspecified; on success m.Type selects the populated field.
func DecodeInto(m *Msg, buf []byte) error {
	if len(buf) == 0 {
		return fmt.Errorf("wire: empty message")
	}
	m.Type = buf[0]
	switch buf[0] {
	case TMarketData:
		if len(buf) < MarketDataSize {
			return fmt.Errorf("wire: market data truncated: %d bytes", len(buf))
		}
		if buf[17]&^3 != 0 {
			return fmt.Errorf("wire: market data has undefined flag bits 0x%02x", buf[17])
		}
		m.Data = market.DataPoint{
			ID:      market.PointID(le.Uint64(buf[1:])),
			Batch:   market.BatchID(le.Uint64(buf[9:])),
			Last:    buf[17]&1 != 0,
			BidSide: buf[17]&2 != 0,
			Gen:     sim.Time(le.Uint64(buf[18:])),
			Symbol:  le.Uint32(buf[26:]),
			Price:   int64(le.Uint64(buf[30:])),
			Qty:     int64(le.Uint64(buf[38:])),
			Ctx:     ctxAt(buf, 46),
		}
		return nil
	case TTrade:
		return DecodeTradeInto(&m.Trade, buf)
	case THeartbeat:
		if len(buf) < HeartbeatSize {
			return fmt.Errorf("wire: heartbeat truncated: %d bytes", len(buf))
		}
		m.Heartbeat = market.Heartbeat{
			MP: market.ParticipantID(le.Uint32(buf[1:])),
			DC: market.DeliveryClock{
				Point:   market.PointID(le.Uint64(buf[5:])),
				Elapsed: sim.Time(le.Uint64(buf[13:])),
			},
			Sent: sim.Time(le.Uint64(buf[21:])),
			Ctx:  ctxAt(buf, 29),
		}
		return nil
	case TRetx:
		if len(buf) < RetxSize {
			return fmt.Errorf("wire: retx truncated: %d bytes", len(buf))
		}
		m.Retx = Retx{
			MP:   market.ParticipantID(le.Uint32(buf[1:])),
			From: market.PointID(le.Uint64(buf[5:])),
			To:   market.PointID(le.Uint64(buf[13:])),
		}
		return nil
	case TClose:
		if len(buf) < CloseSize {
			return fmt.Errorf("wire: close truncated: %d bytes", len(buf))
		}
		m.Close = Close{
			Batch: market.BatchID(le.Uint64(buf[1:])),
			Final: market.PointID(le.Uint64(buf[9:])),
			Count: le.Uint32(buf[17:]),
		}
		return nil
	case TExec:
		if len(buf) < ExecSize {
			return fmt.Errorf("wire: exec truncated: %d bytes", len(buf))
		}
		m.Exec = Exec{
			Maker:      le.Uint64(buf[1:]),
			Taker:      le.Uint64(buf[9:]),
			MakerOwner: int32(le.Uint32(buf[17:])),
			TakerOwner: int32(le.Uint32(buf[21:])),
			Price:      int64(le.Uint64(buf[25:])),
			Qty:        int64(le.Uint64(buf[33:])),
			Seq:        le.Uint64(buf[41:]),
		}
		return nil
	case TProbe:
		if len(buf) < ProbeHeaderSize {
			return fmt.Errorf("wire: probe truncated: %d bytes", len(buf))
		}
		pad := int(le.Uint16(buf[21:]))
		if len(buf) < ProbeHeaderSize+pad {
			return fmt.Errorf("wire: probe pad truncated: %d of %d bytes", len(buf)-ProbeHeaderSize, pad)
		}
		m.Probe = Probe{
			MP:  market.ParticipantID(le.Uint32(buf[1:])),
			Seq: le.Uint64(buf[5:]),
			T1:  sim.Time(le.Uint64(buf[13:])),
			Pad: append(m.Probe.Pad[:0], buf[ProbeHeaderSize:ProbeHeaderSize+pad]...),
		}
		return nil
	case TProbeReply:
		if len(buf) < ProbeReplySize {
			return fmt.Errorf("wire: probe reply truncated: %d bytes", len(buf))
		}
		m.ProbeReply = ProbeReply{
			MP:  market.ParticipantID(le.Uint32(buf[1:])),
			Seq: le.Uint64(buf[5:]),
			T1:  sim.Time(le.Uint64(buf[13:])),
			T2:  sim.Time(le.Uint64(buf[21:])),
			T3:  sim.Time(le.Uint64(buf[29:])),
		}
		return nil
	default:
		return fmt.Errorf("wire: unknown message type 0x%02x", buf[0])
	}
}

// Value boxes the populated field as the typed value Decode returns:
// market.DataPoint, *market.Trade, market.Heartbeat, Retx, Close, Exec,
// Probe, ProbeReply. The value owns its storage (the Trade is a fresh
// heap copy, a Probe's Pad is cloned), so it outlives m. This is the
// one place a decoded message meets an interface; the live path
// switches on m.Type instead.
func (m *Msg) Value() any {
	switch m.Type {
	case TMarketData:
		return m.Data
	case TTrade:
		t := m.Trade
		return &t
	case THeartbeat:
		return m.Heartbeat
	case TRetx:
		return m.Retx
	case TClose:
		return m.Close
	case TProbe:
		p := m.Probe
		p.Pad = slices.Clone(p.Pad)
		return p
	case TProbeReply:
		return m.ProbeReply
	default:
		return m.Exec
	}
}

// Decode parses one message into a fresh Msg and boxes it (see Value).
// Hot receive loops use DecodeInto instead.
func Decode(buf []byte) (any, error) {
	var m Msg
	if err := DecodeInto(&m, buf); err != nil {
		return nil, err
	}
	return m.Value(), nil
}

// Append encodes any supported message value (the dynamic counterpart
// of the typed Append functions).
func Append(buf []byte, v any) ([]byte, error) {
	switch m := v.(type) {
	case market.DataPoint:
		return AppendMarketData(buf, m), nil
	case *market.Trade:
		return AppendTrade(buf, m), nil
	case market.Heartbeat:
		return AppendHeartbeat(buf, m), nil
	case Retx:
		return AppendRetx(buf, m), nil
	case Close:
		return AppendClose(buf, m), nil
	case Exec:
		return AppendExec(buf, m), nil
	case Probe:
		return AppendProbe(buf, m), nil
	case ProbeReply:
		return AppendProbeReply(buf, m), nil
	default:
		return nil, fmt.Errorf("wire: cannot encode %T", v)
	}
}
