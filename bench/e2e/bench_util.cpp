#include "bench_util.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "scenario/hash.hpp"

extern char** environ;

namespace adc_bench {

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles(method="exclusive", n=4): m = n + 1, cut i at
  // j = i*m // 4 (clamped to 1..n-1), interpolate with delta = i*m - 4j.
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(4 * j);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double h = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::string digest(std::string_view bytes) {
  adc::scenario::Fnv1a hash;
  hash.update(bytes);
  return adc::scenario::to_hex(hash.digest());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path);
}

// --- Child ------------------------------------------------------------------

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

Child Child::spawn(const std::vector<std::string>& args,
                   const std::vector<std::pair<std::string, std::string>>& env, int ready_fd) {
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view entry(*e);
    const bool overridden = std::any_of(env.begin(), env.end(), [&](const auto& kv) {
      return entry.substr(0, kv.first.size() + 1) == kv.first + "=";
    });
    if (!overridden) env_strings.emplace_back(entry);
  }
  for (const auto& [key, value] : env) env_strings.push_back(key + "=" + value);

  const std::string exe = "/proc/self/exe";
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  std::vector<char*> envp;
  for (auto& e : env_strings) envp.push_back(e.data());
  envp.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (ready_fd >= 0) posix_spawn_file_actions_adddup2(&actions, ready_fd, kReadyFd);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error(std::string("posix_spawn failed: ") + std::strerror(rc));
  return Child(pid);
}

Child::Exit Child::wait() {
  Exit exit;
  if (pid_ <= 0) return exit;
  int status = 0;
  while (::wait4(pid_, &status, 0, &exit.usage) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  pid_ = -1;
  exit.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return exit;
}

// --- ReadyPipe --------------------------------------------------------------

ReadyPipe::ReadyPipe() {
  int raw[2] = {-1, -1};
  if (::pipe2(raw, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  // Move both ends above kReadyFd, the descriptor the child receives, so dup2 in
  // the spawn actions always copies onto a distinct, non-close-on-exec slot.
  for (int i = 0; i < 2; ++i) {
    fds_[i] = ::fcntl(raw[i], F_DUPFD_CLOEXEC, 10);
    ::close(raw[i]);
    if (fds_[i] < 0) throw std::runtime_error("fcntl(F_DUPFD_CLOEXEC) failed");
  }
}

ReadyPipe::~ReadyPipe() {
  for (const int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

void ReadyPipe::close_write_end() {
  if (fds_[1] >= 0) ::close(fds_[1]);
  fds_[1] = -1;
}

bool ReadyPipe::wait_ready() {
  char byte = 0;
  for (;;) {
    const ssize_t rc = ::read(fds_[0], &byte, 1);
    if (rc == 1) return true;
    if (rc < 0 && errno == EINTR) continue;
    return false;
  }
}

void signal_ready(int fd) {
  if (fd < 0) return;
  const char byte = 'R';
  while (::write(fd, &byte, 1) < 0 && errno == EINTR) {
  }
  ::close(fd);
}

}  // namespace adc_bench
