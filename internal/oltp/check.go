package oltp

import "fmt"

// CheckConsistency verifies the database's structural invariants, the
// OLTP-level analogue of fsck. Because every read-write TPC-C transaction
// is one storage-stack transaction (sealed by a single fsync), these
// invariants must hold even immediately after crash recovery:
//
//   - per district: deliveredOID <= nextOID, and the ring never holds more
//     than MaxOrders undelivered orders;
//   - every live order slot holds the order it should (oid matches its
//     ring position) with a plausible line count;
//   - every order line of a live order is well-formed (quantity 1..10,
//     amount = qty*100, item within range);
//   - undelivered orders carry no carrier id;
//   - per warehouse: W_YTD equals the sum of its districts' D_YTD (TPC-C
//     consistency condition 1; Payment adds the amount to both).
func (e *Engine) CheckConsistency() error {
	cfg := e.cfg
	for w := 0; w < cfg.Warehouses; w++ {
		var distYTD uint64
		for d := 0; d < districtsPerWH; d++ {
			db, err := e.readRec(e.t.district, cfg.distOff(w, d), e.distBuf[:])
			if err != nil {
				return err
			}
			dist := decodeDistrict(db)
			distYTD += dist.ytd
			if dist.deliveredOID > dist.nextOID {
				return fmt.Errorf("oltp: district (%d,%d): delivered %d > next %d",
					w, d, dist.deliveredOID, dist.nextOID)
			}
			if dist.nextOID-dist.deliveredOID > uint64(cfg.MaxOrders) {
				return fmt.Errorf("oltp: district (%d,%d): %d undelivered orders exceed ring of %d",
					w, d, dist.nextOID-dist.deliveredOID, cfg.MaxOrders)
			}
			// Live window: the most recent min(nextOID, MaxOrders) orders.
			start := int64(dist.nextOID) - int64(cfg.MaxOrders)
			if start < 0 {
				start = 0
			}
			for o := start; o < int64(dist.nextOID); o++ {
				ob, err := e.readRec(e.t.order, cfg.orderOff(w, d, int(o)), e.ordBuf[:])
				if err != nil {
					return err
				}
				ord := decodeOrder(ob)
				if ord.oid != uint64(o) {
					return fmt.Errorf("oltp: district (%d,%d) slot for order %d holds oid %d",
						w, d, o, ord.oid)
				}
				if ord.olCount < 5 || ord.olCount > maxOLPerOrder {
					return fmt.Errorf("oltp: order (%d,%d,%d): bad line count %d", w, d, o, ord.olCount)
				}
				if ord.cid >= uint64(cfg.CustomersPerDistrict) {
					return fmt.Errorf("oltp: order (%d,%d,%d): bad customer %d", w, d, o, ord.cid)
				}
				// Undelivered orders must not carry a carrier id. (The
				// converse does not hold: NewOrder may force-reclaim ring
				// slots past deliveredOID without a Delivery run.)
				if uint64(o) >= dist.deliveredOID && ord.carrierID != 0 {
					return fmt.Errorf("oltp: undelivered order (%d,%d,%d) has carrier %d", w, d, o, ord.carrierID)
				}
				for l := 0; l < int(ord.olCount); l++ {
					olb, err := e.readRec(e.t.orderline, cfg.olOff(w, d, int(o), l), e.olBuf[:])
					if err != nil {
						return err
					}
					ol := decodeOrderLine(olb)
					if ol.qty < 1 || ol.qty > 10 {
						return fmt.Errorf("oltp: order line (%d,%d,%d,%d): bad qty %d", w, d, o, l, ol.qty)
					}
					if ol.amount != ol.qty*100 {
						return fmt.Errorf("oltp: order line (%d,%d,%d,%d): amount %d != qty*100", w, d, o, l, ol.amount)
					}
					if ol.itemID >= uint64(cfg.Items) {
						return fmt.Errorf("oltp: order line (%d,%d,%d,%d): bad item %d", w, d, o, l, ol.itemID)
					}
				}
			}
		}
		wb, err := e.readRec(e.t.warehouse, cfg.whOff(w), e.whBuf[:])
		if err != nil {
			return err
		}
		if ytd := decodeWarehouse(wb).ytd; ytd != distYTD {
			return fmt.Errorf("oltp: warehouse %d: W_YTD %d != sum of D_YTD %d", w, ytd, distYTD)
		}
	}
	return nil
}
