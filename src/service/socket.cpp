#include "service/socket.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/error.hpp"

namespace adc::service {

using adc::common::ConfigError;

namespace {

/// Fill a sockaddr_un, validating the path fits (sun_path is ~108 bytes).
sockaddr_un make_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(address.sun_path)) {
    throw ConfigError("unix socket path \"" + path + "\" is empty or longer than " +
                      std::to_string(sizeof(address.sun_path) - 1) + " bytes");
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

/// Poll one descriptor for `events`; true when ready, false on timeout.
bool wait_ready(int fd, short events, int timeout_ms) {
  pollfd entry{};
  entry.fd = fd;
  entry.events = events;
  for (;;) {
    const int rc = ::poll(&entry, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) return true;  // let the caller's read/accept surface the error
  }
}

}  // namespace

UnixStream::~UnixStream() { close(); }

UnixStream::UnixStream(UnixStream&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buffer_(std::move(other.buffer_)) {}

UnixStream& UnixStream::operator=(UnixStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

UnixStream UnixStream::connect(const std::string& path) {
  const sockaddr_un address = make_address(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw ConfigError(std::string("unix socket creation failed: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    const int err = errno;
    ::close(fd);
    throw ConfigError("cannot connect to \"" + path + "\": " + std::strerror(err));
  }
  return UnixStream(fd);
}

bool UnixStream::write_line(const std::string& line, int timeout_ms) {
  if (fd_ < 0) return false;
  const std::string framed = line + "\n";
  // MSG_DONTWAIT makes each send non-blocking regardless of the socket's
  // mode, so a full buffer surfaces as EAGAIN and the deadline below applies
  // instead of send() parking the thread indefinitely.
  const int flags = MSG_NOSIGNAL | (timeout_ms >= 0 ? MSG_DONTWAIT : 0);
  const auto start = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent, flags);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      int wait_ms = -1;
      if (timeout_ms >= 0) {
        const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
        wait_ms = timeout_ms - static_cast<int>(elapsed);
        if (wait_ms <= 0) return false;  // deadline passed: the peer stalled
      }
      if (!wait_ready(fd_, POLLOUT, wait_ms)) return false;
      continue;
    }
    return false;  // EPIPE / ECONNRESET: the peer is gone
  }
  return true;
}

UnixStream::ReadStatus UnixStream::read_line(std::string& out, int timeout_ms) {
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      out.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return ReadStatus::kLine;
    }
    if (fd_ < 0) return ReadStatus::kClosed;
    if (!wait_ready(fd_, POLLIN, timeout_ms)) return ReadStatus::kTimeout;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return ReadStatus::kClosed;  // EOF or a hard error
  }
}

void UnixStream::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void UnixStream::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

UnixListener::UnixListener(const std::string& path) : path_(path) {
  const sockaddr_un address = make_address(path);
  // Never steal the path from a live daemon: if something answers a connect,
  // refuse to start. Only a stale file (connect refused — the daemon that
  // bound it crashed without unlinking) is reclaimed.
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe >= 0) {
    const bool alive =
        ::connect(probe, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) == 0;
    ::close(probe);
    if (alive) {
      throw ConfigError("socket \"" + path + "\" is already in use by a running daemon");
    }
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw ConfigError(std::string("unix socket creation failed: ") + std::strerror(errno));
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);  // a stale socket file from a crashed daemon
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw ConfigError("cannot bind \"" + path + "\": " + std::strerror(err));
  }
  if (::listen(fd_, 64) != 0) {
    const int err = errno;
    close();
    throw ConfigError("cannot listen on \"" + path + "\": " + std::strerror(err));
  }
}

UnixListener::~UnixListener() { close(); }

std::optional<UnixStream> UnixListener::accept(int timeout_ms) {
  if (fd_ < 0) return std::nullopt;
  if (!wait_ready(fd_, POLLIN, timeout_ms)) return std::nullopt;
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) return std::nullopt;
  return UnixStream(client);
}

void UnixListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
}

}  // namespace adc::service
