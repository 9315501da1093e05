"""TCP bridge: point a real GDB at the simulated target.

``repro-gdbserver`` listens on a TCP port and splices the socket onto
the target's serial link, driving the machine in between — exactly what
a serial-to-TCP pod does on a hardware bench.  Any RSP client works;
with a real GDB::

    $ repro-gdbserver --port 3333 --guest threads &
    $ gdb -ex "set architecture auto" \
          -ex "target remote :3333"

(The stub serves ``qXfer:features:read`` so GDB learns the register
layout from the target itself.)

The server is single-client and synchronous by design: the simulated
machine only executes inside :meth:`GdbServer.serve_client`'s loop, so
there is no cross-thread state to guard.
"""

from __future__ import annotations

import argparse
import select
import socket
import sys
from typing import Optional

from repro.core.session import DebugSession
from repro.hw.uart import HostSerialPort

RUN_SLICE = 4000


class GdbServer:
    """Serve one debug session over TCP."""

    def __init__(self, session: DebugSession, host: str = "127.0.0.1",
                 port: int = 3333) -> None:
        self.session = session
        self._listener = socket.socket(socket.AF_INET,
                                       socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET,
                                  socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(1)
        self.address = self._listener.getsockname()
        self._port = HostSerialPort(session.machine.serial_link)
        self.bytes_in = 0
        self.bytes_out = 0
        #: Set True (e.g. from a test) to stop serving.
        self.shutdown_requested = False

    def close(self) -> None:
        self._listener.close()

    # ------------------------------------------------------------------

    def serve_client(self, poll_seconds: float = 0.005,
                     max_idle_polls: Optional[int] = None) -> None:
        """Accept one client and bridge until it disconnects.

        Any client-side failure — a clean FIN, an RST mid-session, a
        broken pipe on send — ends *this session* and returns to the
        caller's accept loop; it never propagates and takes the server
        (and the simulated machine behind it) down with it.
        """
        connection, _ = self._listener.accept()
        connection.setblocking(False)
        idle = 0
        try:
            while not self.shutdown_requested:
                try:
                    readable, _, _ = select.select([connection], [], [],
                                                   poll_seconds)
                except (ValueError, OSError):
                    break  # socket already torn down under us
                moved = False
                if readable:
                    try:
                        data = connection.recv(4096)
                    except BlockingIOError:
                        data = None
                    except (ConnectionResetError, ConnectionAbortedError,
                            OSError):
                        break  # client died mid-session
                    if data == b"":
                        break  # client hung up
                    if data:
                        self.bytes_in += len(data)
                        self._port.send(data)
                        moved = True

                self._drive_target()

                out = self._port.recv()
                if out:
                    self.bytes_out += len(out)
                    try:
                        connection.sendall(out)
                    except (BrokenPipeError, ConnectionResetError,
                            OSError):
                        break  # client gone before we could reply
                    moved = True

                if moved:
                    idle = 0
                else:
                    idle += 1
                    if max_idle_polls is not None \
                            and idle >= max_idle_polls:
                        break
        finally:
            try:
                connection.close()
            except OSError:
                pass

    def _drive_target(self) -> None:
        """One scheduling quantum for the simulated machine."""
        monitor = self.session.monitor
        monitor.service_debugger()
        if not monitor.stopped and not monitor.guest_dead:
            monitor.run(RUN_SLICE)


def _build_session(guest: str) -> DebugSession:
    session = DebugSession(monitor="lvmm")
    if guest == "kernel":
        from repro.guest.asmkernel import KernelConfig, build_kernel
        session.load_and_boot(build_kernel(KernelConfig(
            ticks_to_run=10_000)))
    elif guest == "threads":
        from repro.guest.asmthreads import build_threaded_kernel
        session.load_and_boot(build_threaded_kernel(threads=3,
                                                    iterations=10_000))
    elif guest == "io":
        from repro.guest.asmio import build_io_demo
        session.load_and_boot(build_io_demo())
    else:
        raise ValueError(f"unknown guest {guest!r} "
                         "(kernel | threads | io)")
    return session


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=3333)
    parser.add_argument("--guest", default="kernel",
                        choices=("kernel", "threads", "io"))
    args = parser.parse_args(argv)

    session = _build_session(args.guest)
    server = GdbServer(session, args.host, args.port)
    print(f"repro-gdbserver: guest {args.guest!r} under the LVMM, "
          f"listening on {server.address[0]}:{server.address[1]}")
    print("attach with: gdb -ex 'target remote "
          f"{server.address[0]}:{server.address[1]}'")
    try:
        while True:
            server.serve_client()
            print("client disconnected; waiting for the next one")
    except KeyboardInterrupt:
        print("\nbye")
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
