package vnet

// NIC is one end of a link: the attachment point of a node. WireTaps
// decorate it to count the bytes that cross it.
type NIC struct {
	node *Node
	link *Link
	taps []*WireTap
}

// Link returns the NIC's link.
func (i *NIC) Link() *Link { return i.link }

// Peer returns the NIC at the other end of the link.
func (i *NIC) Peer() *NIC {
	if i.link.a == i {
		return i.link.b
	}
	return i.link.a
}

// WireTap attaches a byte tap to the NIC. The tap starts at zero and
// accumulates from the moment of attachment, independent of any other
// tap.
func (i *NIC) WireTap() *WireTap {
	w := &WireTap{}
	i.taps = append(i.taps, w)
	return w
}

// WireTap is a byte-tap decorator on a NIC: ground-truth wire
// accounting over the interval since it was attached. Fluid flows
// credit their taps continuously (at every rate change and at
// completion), so a tap read mid-experiment reflects bytes actually
// moved, not bytes promised.
type WireTap struct {
	tx, rx float64
}

// TxBytes returns bytes transmitted through the NIC since the tap was
// attached.
func (w *WireTap) TxBytes() int64 { return round64(w.tx) }

// RxBytes returns bytes received through the NIC since the tap was
// attached.
func (w *WireTap) RxBytes() int64 { return round64(w.rx) }

// Bytes returns the tap's total in both directions.
func (w *WireTap) Bytes() int64 { return round64(w.tx + w.rx) }

// round64 converts an accumulated fluid byte count to the nearest
// integer; fluid settlement leaves sub-byte float dust.
func round64(v float64) int64 { return int64(v + 0.5) }
