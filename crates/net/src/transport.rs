//! Transports: how frames move between a coordinator and its clients.
//!
//! A [`Transport`] is one bidirectional, ordered, reliable frame pipe.
//! Two backends ship here:
//!
//! - [`ChannelTransport`] — an in-process pair over `std::sync::mpsc`,
//!   the reference backend. Frames still round-trip through the full
//!   encoder/decoder, so the wire format is exercised even in-process.
//! - [`UdsTransport`] (Unix) — a Unix-domain socket stream, the
//!   process-boundary backend the `rte-coordinator`/`rte-client`
//!   binaries speak.
//!
//! Neither backend spawns a thread: the coordinator reads its links one
//! at a time in a fixed order, so arrival order never reaches an
//! aggregate.

use std::io::{BufReader, BufWriter, Write};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::Duration;

use crate::error::NetError;
use crate::frame::Frame;

/// One bidirectional, ordered, reliable frame pipe.
pub trait Transport {
    /// Sends one frame (blocking until it is handed to the pipe).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] when the peer hung up, or any
    /// encoding/I/O error.
    fn send(&mut self, frame: &Frame) -> Result<(), NetError>;

    /// Receives the next frame (blocking).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] when the peer hung up, or any
    /// decoding/I/O error.
    fn recv(&mut self) -> Result<Frame, NetError>;

    /// Receives the next frame, giving up after `timeout` with
    /// [`NetError::Timeout`]. A stalled or half-dead peer must never
    /// wedge the caller forever — every coordinator-side read goes
    /// through this path.
    ///
    /// The default implementation falls back to the blocking [`recv`]
    /// (so external impls keep compiling) — backends that can honour a
    /// deadline override it.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when the deadline elapses, otherwise the
    /// same errors as [`recv`].
    ///
    /// [`recv`]: Transport::recv
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, NetError> {
        let _ = timeout;
        self.recv()
    }

    /// Sends one frame, giving up after `timeout` with
    /// [`NetError::Timeout`]. Defaults to the blocking [`send`].
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when the deadline elapses, otherwise the
    /// same errors as [`send`].
    ///
    /// [`send`]: Transport::send
    fn send_timeout(&mut self, frame: &Frame, timeout: Duration) -> Result<(), NetError> {
        let _ = timeout;
        self.send(frame)
    }
}

/// In-process transport half over `std::sync::mpsc`, carrying *encoded*
/// frame bytes so the codec is on the path even without a socket.
pub struct ChannelTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

impl ChannelTransport {
    /// Creates a connected pair of transport halves.
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        let (a_tx, b_rx) = channel();
        let (b_tx, a_rx) = channel();
        (
            ChannelTransport { tx: a_tx, rx: a_rx },
            ChannelTransport { tx: b_tx, rx: b_rx },
        )
    }

    /// Receives the next frame without blocking; `Ok(None)` when the
    /// queue is currently empty (single-threaded pumps poll with this).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] when the peer hung up, or a decode
    /// error for damaged bytes.
    pub fn try_recv(&mut self) -> Result<Option<Frame>, NetError> {
        match self.rx.try_recv() {
            Ok(bytes) => Ok(Some(decode_exact(&bytes)?)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(NetError::Closed),
        }
    }
}

/// Decodes a buffer that must hold exactly one frame.
fn decode_exact(bytes: &[u8]) -> Result<Frame, NetError> {
    let (frame, used) = Frame::decode(bytes)?;
    if used != bytes.len() {
        return Err(NetError::Protocol {
            reason: format!("{} trailing bytes after frame", bytes.len() - used),
        });
    }
    Ok(frame)
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        let bytes = frame.encode()?;
        self.tx.send(bytes).map_err(|_| NetError::Closed)
    }

    fn recv(&mut self) -> Result<Frame, NetError> {
        let bytes = self.rx.recv().map_err(|_| NetError::Closed)?;
        decode_exact(&bytes)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, NetError> {
        match self.rx.recv_timeout(timeout) {
            Ok(bytes) => decode_exact(&bytes),
            Err(RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }

    // `send` on an unbounded channel never blocks, so the default
    // `send_timeout` fallback is already deadline-correct here.
}

/// Unix-domain-socket transport: the process-boundary backend.
#[cfg(unix)]
#[derive(Debug)]
pub struct UdsTransport {
    reader: BufReader<std::os::unix::net::UnixStream>,
    writer: BufWriter<std::os::unix::net::UnixStream>,
}

#[cfg(unix)]
impl UdsTransport {
    /// Wraps a connected stream (cloning the descriptor for the read
    /// half so reads and writes buffer independently).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the descriptor cannot be cloned.
    pub fn from_stream(stream: std::os::unix::net::UnixStream) -> Result<Self, NetError> {
        let read_half = stream.try_clone()?;
        Ok(UdsTransport {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        })
    }

    /// Connects to the socket at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the connection fails.
    pub fn connect(path: impl AsRef<std::path::Path>) -> Result<Self, NetError> {
        Self::from_stream(std::os::unix::net::UnixStream::connect(path)?)
    }
}

#[cfg(unix)]
impl Transport for UdsTransport {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        frame.write_to(&mut self.writer)?;
        self.writer.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, NetError> {
        Frame::read_from(&mut self.reader)
    }

    /// Deadline via the socket's read timeout. A timeout that fires
    /// *mid-frame* leaves the byte stream desynchronized — the caller
    /// must treat the transport as dead and reconnect, never resume
    /// reading on it (the retry layer does exactly that).
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, NetError> {
        // A zero Duration would mean "no timeout" to the OS; clamp up.
        let timeout = timeout.max(Duration::from_millis(1));
        self.reader.get_ref().set_read_timeout(Some(timeout))?;
        let result = Frame::read_from(&mut self.reader);
        let _ = self.reader.get_ref().set_read_timeout(None);
        result
    }

    fn send_timeout(&mut self, frame: &Frame, timeout: Duration) -> Result<(), NetError> {
        let timeout = timeout.max(Duration::from_millis(1));
        self.writer.get_ref().set_write_timeout(Some(timeout))?;
        let result = frame
            .write_to(&mut self.writer)
            .and_then(|()| self.writer.flush().map_err(NetError::from));
        let _ = self.writer.get_ref().set_write_timeout(None);
        result
    }
}

/// Listening side of the UDS backend.
#[cfg(unix)]
pub struct UdsListener {
    listener: std::os::unix::net::UnixListener,
}

#[cfg(unix)]
impl UdsListener {
    /// Binds a fresh socket at `path` (removing a stale file first, so a
    /// crashed previous run cannot wedge the address).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the bind fails.
    pub fn bind(path: impl AsRef<std::path::Path>) -> Result<Self, NetError> {
        let path = path.as_ref();
        let _ = std::fs::remove_file(path);
        Ok(UdsListener {
            listener: std::os::unix::net::UnixListener::bind(path)?,
        })
    }

    /// Accepts the next client connection (blocking).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the accept fails.
    pub fn accept(&self) -> Result<UdsTransport, NetError> {
        let (stream, _) = self.listener.accept()?;
        UdsTransport::from_stream(stream)
    }

    /// Accepts the next client connection, giving up after `timeout`
    /// with [`NetError::Timeout`] — so an accept loop whose fleet never
    /// fully arrives can shut down instead of wedging forever.
    ///
    /// Implemented by polling a non-blocking accept every few
    /// milliseconds; the listener is restored to blocking mode before
    /// returning.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when the deadline elapses, otherwise
    /// [`NetError::Io`].
    pub fn accept_timeout(&self, timeout: Duration) -> Result<UdsTransport, NetError> {
        const POLL: Duration = Duration::from_millis(5);
        self.listener.set_nonblocking(true)?;
        let result = (|| {
            let mut budget = timeout;
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false)?;
                        return UdsTransport::from_stream(stream);
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        if budget.is_zero() {
                            return Err(NetError::Timeout);
                        }
                        let step = POLL.min(budget);
                        std::thread::sleep(step);
                        budget = budget.saturating_sub(step);
                    }
                    Err(e) => return Err(NetError::from(e)),
                }
            }
        })();
        let _ = self.listener.set_nonblocking(false);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_pair_round_trips() {
        let (mut a, mut b) = ChannelTransport::pair();
        let frame = Frame::new(1, 0, 0, b"ping".to_vec());
        a.send(&frame).unwrap();
        assert_eq!(b.recv().unwrap(), frame);
        let reply = Frame::new(2, 1, 0, b"pong".to_vec());
        b.send(&reply).unwrap();
        assert_eq!(a.try_recv().unwrap(), Some(reply));
        assert_eq!(a.try_recv().unwrap(), None);
    }

    #[test]
    fn dropped_peer_is_closed() {
        let (mut a, b) = ChannelTransport::pair();
        drop(b);
        assert_eq!(
            a.send(&Frame::new(0, 0, 0, Vec::new())).unwrap_err(),
            NetError::Closed
        );
        assert_eq!(a.recv().unwrap_err(), NetError::Closed);
    }

    #[cfg(unix)]
    #[test]
    fn uds_round_trips_across_a_socket() {
        let dir = std::env::temp_dir().join(format!("rte-net-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("uds-roundtrip.sock");
        let listener = UdsListener::bind(&path).unwrap();
        let client = std::thread::spawn({
            let path = path.clone();
            move || {
                let mut t = UdsTransport::connect(&path).unwrap();
                t.send(&Frame::new(1, 5, 0, b"hello".to_vec())).unwrap();
                t.recv().unwrap()
            }
        });
        let mut server_side = listener.accept().unwrap();
        let got = server_side.recv().unwrap();
        assert_eq!(got.sender, 5);
        assert_eq!(got.payload, b"hello");
        server_side
            .send(&Frame::new(2, 0, 0, b"welcome".to_vec()))
            .unwrap();
        let reply = client.join().unwrap();
        assert_eq!(reply.payload, b"welcome");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn channel_recv_timeout_times_out_then_delivers() {
        let (mut a, mut b) = ChannelTransport::pair();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            NetError::Timeout
        );
        let frame = Frame::new(1, 3, 7, b"late".to_vec());
        a.send(&frame).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_millis(10)).unwrap(), frame);
        drop(a);
        assert_eq!(
            b.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            NetError::Closed
        );
    }

    #[cfg(unix)]
    #[test]
    fn uds_recv_timeout_survives_a_silent_peer() {
        let dir = std::env::temp_dir().join(format!("rte-net-to-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("uds-timeout.sock");
        let listener = UdsListener::bind(&path).unwrap();
        // The client connects and then says nothing at all.
        let silent = UdsTransport::connect(&path).unwrap();
        let mut server_side = listener.accept().unwrap();
        assert_eq!(
            server_side
                .recv_timeout(Duration::from_millis(30))
                .unwrap_err(),
            NetError::Timeout
        );
        // The transport is still usable once the peer wakes up (the
        // timeout fired between frames, not mid-frame).
        let mut silent = silent;
        silent
            .send(&Frame::new(1, 9, 0, b"awake".to_vec()))
            .unwrap();
        let got = server_side.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.payload, b"awake");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn accept_timeout_gives_up_without_a_client() {
        let dir = std::env::temp_dir().join(format!("rte-net-acc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("uds-accept.sock");
        let listener = UdsListener::bind(&path).unwrap();
        assert_eq!(
            listener
                .accept_timeout(Duration::from_millis(20))
                .unwrap_err(),
            NetError::Timeout
        );
        // A real client still gets through afterwards.
        let joiner = std::thread::spawn({
            let path = path.clone();
            move || UdsTransport::connect(&path).unwrap()
        });
        let accepted = listener.accept_timeout(Duration::from_secs(5));
        assert!(accepted.is_ok());
        drop(joiner.join().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
