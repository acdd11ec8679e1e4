#!/usr/bin/env python3
"""CI smoke gate for irdl_serve (stdlib only).

Boots a real ``irdl_serve`` process on a scratch unix socket, speaks the
framed protocol from docs/serving.md against it, and fails when the
service misbehaves:

* PING answers Ok (with connect retries while the server boots);
* LOAD_DIALECT accepts every ``dialects/*.irdl`` file and bumps the
  epoch each time;
* VERIFY of a known-good module answers Ok with an empty payload, and a
  known-bad module answers Fail with rendered diagnostics that carry the
  buffer name and the ``IR failed to verify before the pipeline`` tag
  irdl_opt prints for the same input;
* VERIFY of 10,000 nested regions (hostile nesting past the readers'
  depth cap) answers Fail with a diagnostic instead of crashing the
  server, and a PING on the same connection then answers Ok;
* LOAD_DIALECT of a spec nesting 20,000 constraint levels answers Fail
  with the frontend's nesting diagnostic, and a PING on the same
  connection then answers Ok;
* RELOAD_DIALECT of a byte-identical spec is deduplicated by the
  content-hash cache: it answers Ok with the *unchanged* epoch number
  and bumps ``irdl_serve_spec_cache_hits``;
* METRICS returns a well-formed Prometheus exposition (every sample line
  belongs to a ``# TYPE``-declared family) whose
  ``irdl_serve_requests_total`` counters are nonzero and whose
  ``irdl_serve_spec_cache_hits`` counter is nonzero after the
  duplicate reload;
* 20 RELOAD_DIALECT frames of cmath (each in different text, so each
  publishes an epoch and frees the specs of an unpinned older one) go
  out on a second connection while VERIFY frames of the good and the
  bad module go out on the first: every verdict stays the same, every
  reload bumps the epoch, and a final PING is answered;
* SHUTDOWN makes the server exit 0 and remove its socket file.

With ``--bench-json FILE`` (a ``perf_serve --json`` summary) it also
gates the headline claim: warm served verify p50 must beat the cold
irdl_opt-equivalent pipeline p50.

Usage: check_serve.py SERVE_BINARY [--dialect-dir DIR] [--bench-json FILE]
"""

import glob
import json
import os
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time

# Frame types (src/server/Protocol.h).
VERIFY, LOAD_DIALECT, RELOAD_DIALECT, METRICS, SHUTDOWN, PING = \
    1, 5, 6, 7, 8, 9
OK, FAIL, PROTOCOL_ERROR = 0, 1, 2

GOOD_MODULE = (
    'std.func @good(%c: !cmath.complex<f32>) -> f32 {\n'
    '  %r = "cmath.norm"(%c) : (!cmath.complex<f32>) -> f32\n'
    '  std.return %r : f32\n'
    '}\n'
)
BAD_MODULE = (
    'std.func @bad(%c: f32) -> f32 {\n'
    '  %r = "cmath.norm"(%c) : (f32) -> f32\n'
    '  std.return %r : f32\n'
    '}\n'
)
# Far deeper than the readers' nesting cap (MaxNestingDepth, 256).
DEEP_MODULE = '"std.func"() ({\n' * 10000
# A spec whose one operand constraint nests 20,000 levels, far past the
# IRDL frontend's cap (the same MaxNestingDepth).
DEEP_SPEC = ('Dialect deep { Operation o { Operands (x: ' +
             '!AnyOf<' * 20000 + '!f32' + '>' * 20000 + ') } }\n')


def send_frame(sock, frame_type, payload):
    sock.sendall(struct.pack("<BI", frame_type, len(payload)) + payload)


def recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk
    return buf


def recv_frame(sock):
    status, length = struct.unpack("<BI", recv_exact(sock, 5))
    return status, recv_exact(sock, length)


def named_payload(name, content):
    name = name.encode()
    if isinstance(content, str):
        content = content.encode()
    return struct.pack("<H", len(name)) + name + content


def request(sock, frame_type, payload=b""):
    send_frame(sock, frame_type, payload)
    return recv_frame(sock)


def connect_with_retry(path, deadline_s=10.0):
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(path)
            return sock
        except OSError:
            sock.close()
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


def check_prometheus(text):
    """Every sample line must belong to a declared family; returns the
    parsed samples as {series: value}."""
    declared = set()
    samples = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram"):
                raise AssertionError(f"malformed TYPE line: {line!r}")
            declared.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        if not series:
            raise AssertionError(f"malformed sample line: {line!r}")
        family = series.split("{", 1)[0]
        base = family
        for suffix in ("_bucket", "_sum", "_count"):
            if family.endswith(suffix):
                base = family[: -len(suffix)]
                break
        if family not in declared and base not in declared:
            raise AssertionError(
                f"sample {series!r} has no # TYPE declaration")
        samples[series] = float(value)
    if not declared:
        raise AssertionError("no # TYPE lines in the exposition")
    return samples


def check_reloads_during_verifies(sock, reload_sock, cmath_source, epoch,
                                  num_reloads=20):
    """Reloads cmath num_reloads times on reload_sock while verifying on
    sock; returns the epoch after the last reload."""
    reload_errors = []
    reloads_done = threading.Event()

    def reload_loop():
        try:
            for i in range(num_reloads):
                source = cmath_source + f"// reload {i}\n".encode()
                status, payload = request(
                    reload_sock, RELOAD_DIALECT,
                    named_payload("cmath.irdl", source))
                if status != OK or payload != str(epoch + i + 1).encode():
                    reload_errors.append(
                        f"reload {i}: status={status} payload={payload!r}")
        except Exception as e:  # reported by the main thread
            reload_errors.append(f"reload thread: {e!r}")
        finally:
            reloads_done.set()

    reloader = threading.Thread(target=reload_loop)
    reloader.start()
    verifies = 0
    try:
        while not reloads_done.is_set() or verifies < 2 * num_reloads:
            status, payload = request(
                sock, VERIFY, named_payload("good.mlir", GOOD_MODULE))
            assert status == OK and payload == b"", \
                f"good VERIFY during reloads: status={status} " \
                f"payload={payload.decode()}"
            status, payload = request(
                sock, VERIFY, named_payload("bad.mlir", BAD_MODULE))
            assert status == FAIL and "bad.mlir:2:" in payload.decode(), \
                f"bad VERIFY during reloads: status={status} " \
                f"payload={payload.decode()}"
            verifies += 2
    finally:
        reloader.join()
    assert not reload_errors, "\n".join(reload_errors)
    status, payload = request(sock, PING)
    assert status == OK and payload == b"", \
        f"PING after reloads: status={status} payload={payload!r}"
    print(f"{num_reloads} RELOAD_DIALECT cmath.irdl during {verifies} "
          f"VERIFY frames: verdicts unchanged, epoch {epoch} -> "
          f"{epoch + num_reloads}, PING ok")
    return epoch + num_reloads


def check_bench_json(path):
    with open(path) as f:
        summary = json.load(f)
    p50 = {}
    for hist in summary.get("metrics", {}).get("histograms", []):
        if hist["name"] != "bench_phase_duration_ns":
            continue
        p50[hist.get("labels", {}).get("phase", "")] = hist["p50"]
    warm = p50.get("serve-warm-verify")
    cold = p50.get("cold-oneshot-verify")
    if warm is None or cold is None:
        raise AssertionError(
            f"{path} is missing warm/cold phase histograms (got {sorted(p50)})")
    print(f"warm served verify p50: {warm / 1e6:.3f} ms")
    print(f"cold pipeline p50:      {cold / 1e6:.3f} ms")
    if warm >= cold:
        raise AssertionError(
            "warm served verify p50 is not faster than the cold pipeline")


def main(argv):
    args = argv[1:]
    bench_json = None
    dialect_dir = "dialects"
    positional = []
    i = 0
    while i < len(args):
        if args[i] == "--bench-json":
            bench_json = args[i + 1]
            i += 2
        elif args[i] == "--dialect-dir":
            dialect_dir = args[i + 1]
            i += 2
        else:
            positional.append(args[i])
            i += 1
    if len(positional) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    serve_binary = positional[0]

    dialects = sorted(glob.glob(os.path.join(dialect_dir, "*.irdl")))
    if not dialects:
        print(f"error: no .irdl files under {dialect_dir}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="irdl_serve_smoke.") as tmp:
        sock_path = os.path.join(tmp, "serve.sock")
        metrics_json = os.path.join(tmp, "metrics.json")
        proc = subprocess.Popen(
            [serve_binary, f"--socket={sock_path}",
             f"--metrics-json={metrics_json}"])
        try:
            sock = connect_with_retry(sock_path)

            status, payload = request(sock, PING)
            assert status == OK and payload == b"", \
                f"PING: status={status} payload={payload!r}"
            print("PING ok")

            epoch = 1
            for path in dialects:
                with open(path, "rb") as f:
                    source = f.read()
                status, payload = request(
                    sock, LOAD_DIALECT,
                    named_payload(os.path.basename(path), source))
                assert status == OK, \
                    f"LOAD_DIALECT {path}: {payload.decode()}"
                epoch += 1
                assert payload == str(epoch).encode(), \
                    f"LOAD_DIALECT {path}: epoch {payload!r} != {epoch}"
                print(f"LOAD_DIALECT {os.path.basename(path)} -> "
                      f"epoch {epoch}")

            status, payload = request(
                sock, VERIFY, named_payload("good.mlir", GOOD_MODULE))
            assert status == OK and payload == b"", \
                f"good VERIFY: status={status} payload={payload.decode()}"
            print("VERIFY good.mlir ok (empty diagnostics)")

            status, payload = request(
                sock, VERIFY, named_payload("bad.mlir", BAD_MODULE))
            diag = payload.decode()
            assert status == FAIL, f"bad VERIFY unexpectedly {status}"
            assert "bad.mlir:2:" in diag and \
                "IR failed to verify before the pipeline" in diag, \
                f"bad VERIFY diagnostics look wrong:\n{diag}"
            print("VERIFY bad.mlir failed with rendered diagnostics")

            status, payload = request(
                sock, VERIFY, named_payload("deep.mlir", DEEP_MODULE))
            diag = payload.decode()
            assert status == FAIL, f"deep VERIFY unexpectedly {status}"
            assert "deep.mlir:257:15: error: regions nested deeper than" \
                in diag, f"deep VERIFY diagnostics look wrong:\n{diag[:500]}"
            status, payload = request(sock, PING)
            assert status == OK and payload == b"", \
                f"PING after deep VERIFY: status={status} payload={payload!r}"
            print("VERIFY deep.mlir failed with a nesting diagnostic; "
                  "the connection still serves")

            status, payload = request(
                sock, LOAD_DIALECT,
                named_payload("deep.irdl", DEEP_SPEC.encode()))
            diag = payload.decode()
            assert status == FAIL, f"deep LOAD_DIALECT unexpectedly {status}"
            assert "deep.irdl:1:" in diag and \
                "error: constraints nested deeper than 256" in diag, \
                f"deep LOAD_DIALECT diagnostics look wrong:\n{diag[:500]}"
            status, payload = request(sock, PING)
            assert status == OK and payload == b"", \
                f"PING after deep LOAD_DIALECT: status={status} " \
                f"payload={payload!r}"
            print("LOAD_DIALECT deep.irdl failed with a nesting diagnostic; "
                  "the connection still serves")

            # Re-send the last dialect byte-for-byte: the content-hash
            # cache must dedup it — Ok, epoch unchanged, hit counted.
            with open(dialects[-1], "rb") as f:
                source = f.read()
            status, payload = request(
                sock, RELOAD_DIALECT,
                named_payload(os.path.basename(dialects[-1]), source))
            assert status == OK, \
                f"duplicate RELOAD_DIALECT: {payload.decode()}"
            assert payload == str(epoch).encode(), \
                f"duplicate RELOAD_DIALECT bumped the epoch: " \
                f"{payload!r} != {epoch}"
            print(f"duplicate RELOAD_DIALECT {os.path.basename(dialects[-1])} "
                  f"deduplicated (epoch stays {epoch})")

            status, payload = request(sock, METRICS)
            assert status == OK, "METRICS failed"
            samples = check_prometheus(payload.decode())
            served = sum(
                v for k, v in samples.items()
                if k.startswith("irdl_serve_requests_total"))
            assert served > 0, "irdl_serve_requests_total is zero"
            cache_hits = sum(
                v for k, v in samples.items()
                if k.startswith("irdl_serve_spec_cache_hits"))
            assert cache_hits > 0, \
                "irdl_serve_spec_cache_hits is zero after a duplicate reload"
            print(f"METRICS well-formed ({len(samples)} samples, "
                  f"{int(served)} requests served, "
                  f"{int(cache_hits)} spec cache hits)")

            cmath_path = os.path.join(dialect_dir, "cmath.irdl")
            with open(cmath_path, "rb") as f:
                cmath_source = f.read()
            reload_sock = connect_with_retry(sock_path)
            epoch = check_reloads_during_verifies(
                sock, reload_sock, cmath_source, epoch)
            reload_sock.close()

            status, payload = request(sock, SHUTDOWN)
            assert status == OK, "SHUTDOWN failed"
            sock.close()
            code = proc.wait(timeout=10)
            assert code == 0, f"server exited {code}"
            assert not os.path.exists(sock_path), \
                "socket file survived shutdown"
            assert os.path.exists(metrics_json), \
                "--metrics-json artifact was not written"
            print("SHUTDOWN clean (exit 0, socket unlinked, "
                  "metrics flushed)")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    if bench_json:
        check_bench_json(bench_json)
    print("check_serve: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
