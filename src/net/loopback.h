// In-process loopback transport: a pair of Connections joined by two
// bounded byte pipes, plus a Listener whose connect() hands the server end
// to an accept()er. This is what makes the protocol suite deterministic —
// tests drive framing splits byte-by-byte, fill a tiny pipe to simulate a
// slow subscriber, and half-close each direction independently, all without
// touching a real port.
#ifndef BGPCU_NET_LOOPBACK_H
#define BGPCU_NET_LOOPBACK_H

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "net/transport.h"

namespace bgpcu::net {

/// One direction of a loopback connection: a bounded byte queue with
/// blocking reads and writes. Both sides share it via shared_ptr.
///
/// For the event-driven server the pipe can also expose its readiness as
/// level-semantics eventfds: read_ready_fd() is readable whenever a read
/// would make progress (data buffered, or EOF pending), write_ready_fd()
/// whenever a write would (room in the buffer, or the stream is closed so
/// the writer should come learn that). The fds are created lazily — tests
/// that never poll pay nothing — and are maintained by every mutating
/// operation. On eventfd creation failure the accessors return -1 and the
/// connection reports itself non-pollable (the server then turns it away).
class LoopbackPipe {
 public:
  explicit LoopbackPipe(std::size_t capacity);
  ~LoopbackPipe();

  LoopbackPipe(const LoopbackPipe&) = delete;
  LoopbackPipe& operator=(const LoopbackPipe&) = delete;

  /// Blocks for data; 0 on EOF (writer closed and buffer drained, reader
  /// closed locally, or a nonzero `timeout` expired with nothing to read).
  std::size_t read_some(std::span<std::uint8_t> out,
                        std::chrono::milliseconds timeout = std::chrono::milliseconds::zero());

  /// Blocks while the pipe is full — real backpressure. False once the
  /// reader side is gone.
  bool write_all(std::span<const std::uint8_t> data);

  /// Nonblocking read: returns bytes copied (0 if nothing buffered). Sets
  /// `eof` when the stream is over (writer closed and drained, or reader
  /// closed locally).
  std::size_t try_read_some(std::span<std::uint8_t> out, bool& eof);

  /// Nonblocking write of a prefix of `data`: returns bytes accepted
  /// (0 when the pipe is full). Sets `closed` once the reader is gone.
  std::size_t try_write_some(std::span<const std::uint8_t> data, bool& closed);

  /// Lazily created readiness eventfds (see class comment); -1 on failure.
  [[nodiscard]] int read_ready_fd();
  [[nodiscard]] int write_ready_fd();

  void close_write();  ///< Writer done: reader drains the rest, then EOF.
  void close_read();   ///< Reader gone: writers fail fast from now on.

 private:
  void update_signals_locked();
  [[nodiscard]] std::size_t buffered_locked() const noexcept {
    return buffer_.size() - head_;
  }
  std::size_t consume_locked(std::span<std::uint8_t> out);

  const std::size_t capacity_;
  std::mutex mutex_;
  std::condition_variable readable_;
  std::condition_variable writable_;
  // Contiguous byte queue: appends memcpy onto the tail, reads advance
  // `head_`. The storage resets to empty whenever the reader fully drains
  // (the common case), and compacts when the dead prefix dominates — a
  // deque of bytes pays per-byte segmented-iterator cost on every copy,
  // which at fan-out scale (tens of MB through thousands of pipes) was
  // measurable.
  std::vector<std::uint8_t> buffer_;
  std::size_t head_ = 0;
  bool write_closed_ = false;
  bool read_closed_ = false;
  // Readiness eventfds: -2 = not yet requested, -1 = creation failed.
  int read_efd_ = -2;
  int write_efd_ = -2;
  // Whether each eventfd currently holds a nonzero counter (is readable).
  bool read_sig_ = false;
  bool write_sig_ = false;
};

/// Returns the two ends of a fresh loopback connection. `capacity` bounds
/// each direction's in-flight bytes; small values make write_all block
/// early, which is exactly what backpressure tests need.
std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>> make_loopback_pair(
    std::size_t capacity = std::size_t{1} << 16);

/// Listener over loopback pairs: connect() queues the server end for
/// accept() and returns the client end. Thread-safe; close() wakes accept.
class LoopbackListener : public Listener {
 public:
  explicit LoopbackListener(std::size_t capacity = std::size_t{1} << 16)
      : capacity_(capacity) {}

  /// Client side of a new connection (never null); the matching server side
  /// is queued for accept(). Throws TransportError after close().
  std::unique_ptr<Connection> connect();

  std::unique_ptr<Connection> accept() override;
  void close() override;
  [[nodiscard]] std::string name() const override { return "loopback"; }

 private:
  const std::size_t capacity_;
  std::mutex mutex_;
  std::condition_variable pending_cv_;
  std::deque<std::unique_ptr<Connection>> pending_;
  bool closed_ = false;
};

}  // namespace bgpcu::net

#endif  // BGPCU_NET_LOOPBACK_H
