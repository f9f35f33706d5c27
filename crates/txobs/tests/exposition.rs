//! Golden test of the Prometheus text exposition: fixed values go into every
//! WAL, KV and network instrument, and `metrics_text()` must render them byte
//! for byte as below — metric names, their order, the counter/gauge/histogram
//! layout and the cumulative bucket lines.
//!
//! This file is its own test binary, so no other test touches the process-wide
//! statics while it runs.

use txobs::metrics::{kv, metrics_text, net, wal};

const GOLDEN: &str = r##"# TYPE txobs_wal_enqueued_total counter
txobs_wal_enqueued_total 11
# TYPE txobs_wal_batches_total counter
txobs_wal_batches_total 3
# TYPE txobs_wal_batch_records_total counter
txobs_wal_batch_records_total 17
# TYPE txobs_wal_batch_bytes_total counter
txobs_wal_batch_bytes_total 4096
# TYPE txobs_wal_fsyncs_total counter
txobs_wal_fsyncs_total 2
# TYPE txobs_wal_retries_total counter
txobs_wal_retries_total 1
# TYPE txobs_wal_faults_total counter
txobs_wal_faults_total 5
# TYPE txobs_wal_rotations_total counter
txobs_wal_rotations_total 7
# TYPE txobs_kv_rearms_total counter
txobs_kv_rearms_total 13
# TYPE txobs_net_requests_total counter
txobs_net_requests_total 101
# TYPE txobs_net_replies_total counter
txobs_net_replies_total 99
# TYPE txobs_net_bytes_in_total counter
txobs_net_bytes_in_total 2048
# TYPE txobs_net_bytes_out_total counter
txobs_net_bytes_out_total 1536
# TYPE txobs_net_coalesced_batches_total counter
txobs_net_coalesced_batches_total 19
# TYPE txobs_net_coalesced_requests_total counter
txobs_net_coalesced_requests_total 23
# TYPE txobs_net_protocol_errors_total counter
txobs_net_protocol_errors_total 29
# TYPE txobs_wal_queue_depth gauge
txobs_wal_queue_depth 4
# TYPE txobs_kv_health gauge
txobs_kv_health 2
# TYPE txobs_net_connections gauge
txobs_net_connections 8
# TYPE txobs_net_parked_rounds gauge
txobs_net_parked_rounds 6
# TYPE txobs_wal_append_ns histogram
txobs_wal_append_ns_bucket{le="1"} 1
txobs_wal_append_ns_bucket{le="3"} 1
txobs_wal_append_ns_bucket{le="7"} 1
txobs_wal_append_ns_bucket{le="15"} 1
txobs_wal_append_ns_bucket{le="31"} 1
txobs_wal_append_ns_bucket{le="63"} 1
txobs_wal_append_ns_bucket{le="127"} 1
txobs_wal_append_ns_bucket{le="255"} 1
txobs_wal_append_ns_bucket{le="511"} 1
txobs_wal_append_ns_bucket{le="1023"} 3
txobs_wal_append_ns_bucket{le="2047"} 3
txobs_wal_append_ns_bucket{le="4095"} 3
txobs_wal_append_ns_bucket{le="8191"} 3
txobs_wal_append_ns_bucket{le="16383"} 3
txobs_wal_append_ns_bucket{le="32767"} 3
txobs_wal_append_ns_bucket{le="65535"} 4
txobs_wal_append_ns_bucket{le="+Inf"} 4
txobs_wal_append_ns_sum 66401
txobs_wal_append_ns_count 4
# TYPE txobs_wal_fsync_ns histogram
txobs_wal_fsync_ns_bucket{le="1"} 0
txobs_wal_fsync_ns_bucket{le="3"} 0
txobs_wal_fsync_ns_bucket{le="7"} 0
txobs_wal_fsync_ns_bucket{le="15"} 0
txobs_wal_fsync_ns_bucket{le="31"} 0
txobs_wal_fsync_ns_bucket{le="63"} 0
txobs_wal_fsync_ns_bucket{le="127"} 0
txobs_wal_fsync_ns_bucket{le="255"} 0
txobs_wal_fsync_ns_bucket{le="511"} 0
txobs_wal_fsync_ns_bucket{le="1023"} 0
txobs_wal_fsync_ns_bucket{le="2047"} 0
txobs_wal_fsync_ns_bucket{le="4095"} 0
txobs_wal_fsync_ns_bucket{le="8191"} 0
txobs_wal_fsync_ns_bucket{le="16383"} 0
txobs_wal_fsync_ns_bucket{le="32767"} 0
txobs_wal_fsync_ns_bucket{le="65535"} 0
txobs_wal_fsync_ns_bucket{le="131071"} 1
txobs_wal_fsync_ns_bucket{le="262143"} 1
txobs_wal_fsync_ns_bucket{le="524287"} 1
txobs_wal_fsync_ns_bucket{le="1048575"} 1
txobs_wal_fsync_ns_bucket{le="2097151"} 2
txobs_wal_fsync_ns_bucket{le="+Inf"} 2
txobs_wal_fsync_ns_sum 2123456
txobs_wal_fsync_ns_count 2
# TYPE txobs_net_ack_lag_ns histogram
txobs_net_ack_lag_ns_bucket{le="1"} 1
txobs_net_ack_lag_ns_bucket{le="3"} 2
txobs_net_ack_lag_ns_bucket{le="7"} 2
txobs_net_ack_lag_ns_bucket{le="15"} 2
txobs_net_ack_lag_ns_bucket{le="31"} 2
txobs_net_ack_lag_ns_bucket{le="63"} 2
txobs_net_ack_lag_ns_bucket{le="127"} 2
txobs_net_ack_lag_ns_bucket{le="255"} 2
txobs_net_ack_lag_ns_bucket{le="511"} 2
txobs_net_ack_lag_ns_bucket{le="1023"} 2
txobs_net_ack_lag_ns_bucket{le="2047"} 2
txobs_net_ack_lag_ns_bucket{le="4095"} 2
txobs_net_ack_lag_ns_bucket{le="8191"} 2
txobs_net_ack_lag_ns_bucket{le="16383"} 2
txobs_net_ack_lag_ns_bucket{le="32767"} 2
txobs_net_ack_lag_ns_bucket{le="65535"} 2
txobs_net_ack_lag_ns_bucket{le="131071"} 2
txobs_net_ack_lag_ns_bucket{le="262143"} 2
txobs_net_ack_lag_ns_bucket{le="524287"} 2
txobs_net_ack_lag_ns_bucket{le="1048575"} 2
txobs_net_ack_lag_ns_bucket{le="2097151"} 2
txobs_net_ack_lag_ns_bucket{le="4194303"} 2
txobs_net_ack_lag_ns_bucket{le="8388607"} 2
txobs_net_ack_lag_ns_bucket{le="16777215"} 2
txobs_net_ack_lag_ns_bucket{le="33554431"} 2
txobs_net_ack_lag_ns_bucket{le="67108863"} 2
txobs_net_ack_lag_ns_bucket{le="134217727"} 2
txobs_net_ack_lag_ns_bucket{le="268435455"} 2
txobs_net_ack_lag_ns_bucket{le="536870911"} 2
txobs_net_ack_lag_ns_bucket{le="1073741823"} 3
txobs_net_ack_lag_ns_bucket{le="+Inf"} 3
txobs_net_ack_lag_ns_sum 1000000003
txobs_net_ack_lag_ns_count 3
"##;

#[test]
fn exposition_matches_the_golden_text() {
    let wal = wal();
    wal.enqueued.add(11);
    wal.batches.add(3);
    wal.batch_records.add(17);
    wal.batch_bytes.add(4096);
    wal.fsyncs.add(2);
    wal.retries.inc();
    wal.faults.add(5);
    wal.rotations.add(7);
    wal.queue_depth.set(4);
    for ns in [1, 700, 700, 65_000] {
        wal.append_ns.record_ns(ns);
    }
    for ns in [123_456, 2_000_000] {
        wal.fsync_ns.record_ns(ns);
    }

    let kv = kv();
    kv.rearms.add(13);
    kv.health.set(2);

    let net = net();
    net.requests.add(101);
    net.replies.add(99);
    net.bytes_in.add(2048);
    net.bytes_out.add(1536);
    net.coalesced_batches.add(19);
    net.coalesced_requests.add(23);
    net.protocol_errors.add(29);
    net.connections.set(8);
    net.parked_rounds.set(6);
    for ns in [0, 3, 1_000_000_000] {
        net.ack_lag_ns.record_ns(ns);
    }

    let text = metrics_text();
    assert_eq!(text, GOLDEN);
}
