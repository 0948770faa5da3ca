#!/usr/bin/env python3
"""Replay a JSON-lines request script against a running nocplan serve
listener and print the responses.  The target is a Unix socket path
or a TCP HOST:PORT.  Used by CI's service smoke step; handy for manual
poking too:

    nocplan serve --socket /tmp/nocplan.sock --tcp 127.0.0.1:7411 &
    python3 test/serve_replay.py /tmp/nocplan.sock test/serve_smoke.jsonl
    python3 test/serve_replay.py 127.0.0.1:7411 test/serve_smoke.jsonl

Connecting is retried for up to 10 s, so the script can be started
alongside the server.
"""
import socket
import sys
import time

if len(sys.argv) != 3:
    sys.exit(f"usage: {sys.argv[0]} SOCKET_PATH|HOST:PORT REQUEST_SCRIPT")

target, script = sys.argv[1], sys.argv[2]
host, sep, port = target.rpartition(":")


def connect():
    if sep and port.isdigit():
        return socket.create_connection((host, int(port)))
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.connect(target)
    except OSError:
        sock.close()
        raise
    return sock


deadline = time.monotonic() + 10.0
while True:
    try:
        sock = connect()
        break
    except (ConnectionRefusedError, FileNotFoundError):
        if time.monotonic() > deadline:
            raise
        time.sleep(0.05)

with open(script, "rb") as f:
    sock.sendall(f.read())
# Half-close: the server answers everything in flight, then closes.
sock.shutdown(socket.SHUT_WR)
buf = b""
while True:
    chunk = sock.recv(65536)
    if not chunk:
        break
    buf += chunk
sys.stdout.write(buf.decode())
