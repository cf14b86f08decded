/// @file serve.cpp
/// carbon_simd child-process control, the open-loop generator and the
/// metrics scrape.

#include "serve.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <deque>
#include <fstream>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/metrics.h"

extern char** environ;

namespace perfbench {
namespace {

using carbon::core::Json;

constexpr long long kMs = 1000000;

/// Wait until @p fd is ready for @p events or @p deadline_ns passes.
bool wait_fd(int fd, short events, long long deadline_ns) {
  for (;;) {
    const long long left = deadline_ns - now_ns();
    if (left <= 0) return false;
    struct pollfd p = {fd, events, 0};
    const int rc = ::poll(&p, 1, static_cast<int>(std::max(1LL, left / kMs)));
    if (rc > 0) return true;
    if (rc < 0 && errno != EINTR) return false;
  }
}

/// Read one '\n'-terminated line from @p fd into @p buf (which keeps any
/// bytes past the newline).  Returns false on EOF, error or timeout.
bool read_line(int fd, std::string& buf, std::string* line,
               long long deadline_ns) {
  for (;;) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      line->assign(buf, 0, nl);
      buf.erase(0, nl + 1);
      return true;
    }
    if (!wait_fd(fd, POLLIN, deadline_ns)) return false;
    char chunk[65536];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n > 0) {
      buf.append(chunk, static_cast<std::size_t>(n));
    } else if (n == 0 || (errno != EAGAIN && errno != EINTR)) {
      return false;
    }
  }
}

bool write_all(int fd, const std::string& s, long long deadline_ns) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      if (!wait_fd(fd, POLLOUT, deadline_ns)) return false;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

// ------------------------------------------------------------- Daemon

Daemon::Daemon(const std::string& binary, const std::string& sock,
               int workers)
    : sock_(sock) {
  ::unlink(sock.c_str());
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  // The drain report on stderr is not the benchmark's output.
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, "/dev/null", O_WRONLY,
                                   0);
  const std::string nworkers = std::to_string(workers);
  std::vector<std::string> args = {binary,     "--unix",    sock,
                                   "--workers", nworkers,   "--drain-ms",
                                   "2000"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const long long t0 = now_ns();
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &fa, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  out_fd_ = fds[0];
  if (rc != 0) {
    pid_ = -1;
    release();  // the destructor does not run for a throwing constructor
    throw std::runtime_error("cannot spawn " + binary + ": " +
                             std::strerror(rc));
  }
  std::string buf, line;
  const bool got = read_line(out_fd_, buf, &line, t0 + 20000 * kMs);
  ready_s_ = static_cast<double>(now_ns() - t0) * 1e-9;
  if (!got || line.find("\"ready\":true") == std::string::npos) {
    release();
    throw std::runtime_error("carbon_simd gave no ready line: " + line);
  }
}

void Daemon::release() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  ::unlink(sock_.c_str());
}

Daemon::~Daemon() { release(); }

long Daemon::peak_rss_kb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      long kb = 0;
      in >> kb;
      return kb;
    }
    in.ignore(1 << 20, '\n');
  }
  return 0;
}

int Daemon::stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const long long deadline = now_ns() + 10000 * kMs;
  pid_t r = 0;
  while ((r = ::waitpid(pid_, &status, WNOHANG)) == 0 && now_ns() < deadline) {
    ::usleep(1000);
  }
  if (r == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// --------------------------------------------------------- ServerSnap

ServerSnap ServerSnap::minus(const ServerSnap& b) const {
  ServerSnap d = *this;
  for (std::size_t i = 0; i < d.ok_buckets.size(); ++i) {
    d.ok_buckets[i] -= b.ok_buckets[i];
  }
  d.ok_count -= b.ok_count;
  d.ok_sum_s -= b.ok_sum_s;
  for (auto& [k, v] : d.outcomes) {
    const auto it = b.outcomes.find(k);
    if (it != b.outcomes.end()) v -= it->second;
  }
  return d;
}

void ServerSnap::add(const ServerSnap& d) {
  for (std::size_t i = 0; i < ok_buckets.size(); ++i) {
    ok_buckets[i] += d.ok_buckets[i];
  }
  ok_count += d.ok_count;
  ok_sum_s += d.ok_sum_s;
  for (const auto& [k, v] : d.outcomes) outcomes[k] += v;
}

double ServerSnap::ok_percentile_ms(double pct) const {
  using carbon::obs::Histogram;
  if (ok_count <= 0) return 0.0;
  const double target = pct / 100.0 * static_cast<double>(ok_count);
  double cum = 0.0;
  for (int i = 0; i <= Histogram::kBuckets; ++i) {
    const double c = static_cast<double>(ok_buckets[static_cast<std::size_t>(i)]);
    if (c > 0.0 && cum + c >= target) {
      const double lo = i == 0 ? 0.0 : Histogram::bucket_bound(i - 1);
      const double hi = i < Histogram::kBuckets ? Histogram::bucket_bound(i)
                                                : lo;
      return 1e3 * (lo + (hi - lo) * (target - cum) / c);
    }
    cum += c;
  }
  return 1e3 * Histogram::bucket_bound(Histogram::kBuckets - 1);
}

void StepResult::merge(const StepResult& o) {
  sent += o.sent;
  completed += o.completed;
  ok += o.ok;
  failed += o.failed;
  client_ok_docs += o.client_ok_docs;
  client_notok_docs += o.client_notok_docs;
  latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                    o.latency_ms.end());
  slot_ms.insert(slot_ms.end(), o.slot_ms.begin(), o.slot_ms.end());
  lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
  latency = summarize(latency_ms);
  lag = summarize(lag_ms);
  active_s += o.active_s;
  achieved_rps = static_cast<double>(completed) / std::max(1e-9, active_s);
  response_bytes += o.response_bytes;
  backlog = std::max(backlog, o.backlog);
  server.add(o.server);
  for (const std::string& f : o.failures) {
    if (failures.size() < 20) failures.push_back(f);
  }
}

namespace {

/// A backlog that grows over a step shows as late requests waiting far
/// longer than early ones: StepResult::backlog.
double backlog_growth(const std::vector<double>& slot_ms) {
  const std::size_t n = slot_ms.size(), q = n / 4;
  std::vector<double> first, last;
  for (std::size_t k = 0; k < n; ++k) {
    if (std::isnan(slot_ms[k])) continue;
    if (k < q) first.push_back(slot_ms[k]);
    if (k >= n - q) last.push_back(slot_ms[k]);
  }
  return median(last) / (3.0 * median(first) + 2.0);
}

}  // namespace

StepResult best_of_replays(const std::vector<StepResult>& replays) {
  StepResult best = replays.front();
  for (std::size_t i = 1; i < replays.size(); ++i) best.merge(replays[i]);
  best.slot_ms = replays.front().slot_ms;
  for (std::size_t i = 1; i < replays.size(); ++i) {
    for (std::size_t k = 0; k < best.slot_ms.size(); ++k) {
      const double x = replays[i].slot_ms.at(k);
      if (std::isnan(best.slot_ms[k]) || x < best.slot_ms[k]) best.slot_ms[k] = x;
    }
  }
  best.latency_ms.clear();
  for (double x : best.slot_ms) {
    if (!std::isnan(x)) best.latency_ms.push_back(x);
  }
  best.latency = summarize(best.latency_ms);
  best.backlog = backlog_growth(best.slot_ms);
  return best;
}

// ------------------------------------------------------------ LoadGen

struct LoadGen::Conn {
  int fd = -1;
  std::string out;            ///< bytes not yet accepted by the socket
  std::string in;             ///< received bytes not yet split into lines
  std::deque<long> pending;   ///< step-local request indices, in order
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

LoadGen::LoadGen(const std::string& sock, int connections) {
  for (int i = 0; i < connections; ++i) {
    auto c = std::make_unique<Conn>();
    c->fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c->fd < 0) throw std::runtime_error("socket() failed");
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (sock.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("socket path too long: " + sock);
    }
    std::memcpy(addr.sun_path, sock.c_str(), sock.size());
    if (::connect(c->fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof addr) != 0) {
      throw std::runtime_error("cannot connect to " + sock + ": " +
                               std::strerror(errno));
    }
    ::fcntl(c->fd, F_SETFL, ::fcntl(c->fd, F_GETFL) | O_NONBLOCK);
    conns_.push_back(std::move(c));
  }
}

LoadGen::~LoadGen() = default;

std::vector<long> LoadGen::deck_order(const std::vector<GenDeck>& pool,
                                      long count, std::uint64_t seed) {
  Rng rng(seed);
  const long size = static_cast<long>(pool.size());
  const long start = static_cast<long>(rng.next() % static_cast<std::uint64_t>(size));
  std::vector<long> out(static_cast<std::size_t>(count));
  for (long k = 0; k < count; ++k) out[static_cast<std::size_t>(k)] = (start + k) % size;
  return out;
}

std::vector<std::string> LoadGen::requests(const std::vector<GenDeck>& pool,
                                           const std::vector<long>& decks,
                                           long first_id) {
  std::vector<std::string> out;
  out.reserve(decks.size());
  for (std::size_t k = 0; k < decks.size(); ++k) {
    auto req = Json::object();
    req.set("type", "run");
    req.set("id", first_id + static_cast<long>(k));
    req.set("deadline_ms", 30000);
    req.set("deck", pool[static_cast<std::size_t>(decks[k])].text);
    out.push_back(req.dump() + "\n");
  }
  return out;
}

std::vector<long long> LoadGen::arrivals(std::uint64_t seed, long count,
                                         double seconds) {
  Rng rng(seed);
  std::vector<long long> t(static_cast<std::size_t>(count));
  for (long long& x : t) {
    x = static_cast<long long>(rng.uniform() * seconds * 1e9);
  }
  std::sort(t.begin(), t.end());
  return t;
}

StepResult LoadGen::run_step(const std::string& name,
                             const std::vector<GenDeck>& pool,
                             long* id_cursor, double rate, double seconds,
                             std::uint64_t deck_seed,
                             std::uint64_t arrival_seed, SpanLog* spans) {
  StepResult res;
  res.name = name;
  res.rate = rate;
  const long n = std::max(1L, std::lround(rate * seconds));
  const long first = *id_cursor;
  *id_cursor += n;
  const std::vector<long> decks = deck_order(pool, n, deck_seed);
  const std::vector<std::string> lines = requests(pool, decks, first);
  const std::vector<long long> due = arrivals(arrival_seed, n, seconds);
  std::vector<std::string> resp(static_cast<std::size_t>(n));
  std::vector<long long> done(static_cast<std::size_t>(n), -1);
  res.lag_ms.reserve(static_cast<std::size_t>(n));
  const ServerSnap before = scrape();

  const std::size_t nc = conns_.size();
  std::vector<struct pollfd> pfd(nc);
  const long long t_start = now_ns() + 2 * kMs;
  const long long deadline =
      t_start + static_cast<long long>(seconds * 1e9) + 30000 * kMs;
  long next = 0, completed = 0;
  bool broken = false;

  auto flush = [&](Conn& c) {
    while (!c.out.empty()) {
      const ssize_t w = ::write(c.fd, c.out.data(), c.out.size());
      if (w > 0) {
        c.out.erase(0, static_cast<std::size_t>(w));
      } else if (w < 0 && (errno == EAGAIN || errno == EINTR)) {
        return;
      } else {
        broken = true;
        return;
      }
    }
  };

  while (completed < n && !broken) {
    long long now = now_ns();
    while (next < n && t_start + due[static_cast<std::size_t>(next)] <= now) {
      Conn& c = *conns_[static_cast<std::size_t>(next) % nc];
      SpanLog::Scope s(spans, "gen.send", first + next);
      res.lag_ms.push_back(
          static_cast<double>(now - t_start - due[static_cast<std::size_t>(next)]) *
          1e-6);
      c.out += lines[static_cast<std::size_t>(next)];
      c.pending.push_back(next);
      flush(c);
      ++next;
    }
    now = now_ns();
    if (now >= deadline) break;
    // Busy-poll (zero timeout): the generator owns its CPU, and a sleeping
    // generator's timer wake-ups on a virtualized host run milliseconds
    // late, which would show as generator lag rather than server latency.
    struct timespec ts = {0, 0};
    for (std::size_t i = 0; i < nc; ++i) {
      pfd[i] = {conns_[i]->fd,
                static_cast<short>(POLLIN | (conns_[i]->out.empty() ? 0 : POLLOUT)),
                0};
    }
    const int rc = ::ppoll(pfd.data(), nc, &ts, nullptr);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    for (std::size_t i = 0; i < nc; ++i) {
      Conn& c = *conns_[i];
      if (pfd[i].revents & POLLOUT) flush(c);
      if (!(pfd[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char chunk[65536];
      for (;;) {
        const ssize_t r = ::read(c.fd, chunk, sizeof chunk);
        if (r > 0) {
          c.in.append(chunk, static_cast<std::size_t>(r));
          continue;
        }
        if (r == 0 || (errno != EAGAIN && errno != EINTR)) broken = true;
        break;
      }
      std::size_t start = 0;
      for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        if (c.pending.empty()) {
          broken = true;  // a response nobody asked for
          break;
        }
        const long k = c.pending.front();
        c.pending.pop_front();
        SpanLog::Scope s(spans, "gen.recv", first + k);
        done[static_cast<std::size_t>(k)] = now_ns();
        resp[static_cast<std::size_t>(k)].assign(c.in, start, nl - start);
        ++completed;
      }
      c.in.erase(0, start);
    }
  }

  // Judge every response against its deck's oracle.
  long long last_done = t_start;
  for (long k = 0; k < n; ++k) {
    const std::size_t ks = static_cast<std::size_t>(k);
    ++res.sent;
    std::string why;
    if (done[ks] < 0) {
      why = "no response (lost)";
      res.slot_ms.push_back(std::nan(""));
    } else {
      ++res.completed;
      last_done = std::max(last_done, done[ks]);
      const double lat = static_cast<double>(done[ks] - t_start - due[ks]) * 1e-6;
      res.latency_ms.push_back(lat);
      res.slot_ms.push_back(lat);
      if (spans) {
        spans->add("request", t_start + due[ks], done[ks] - t_start - due[ks],
                   first + k);
      }
      res.response_bytes += static_cast<long long>(resp[ks].size());
      try {
        const Json doc = Json::parse(resp[ks]);
        const Json* ok = doc.find("ok");
        if (ok && ok->is_bool()) {
          (ok->as_bool() ? res.client_ok_docs : res.client_notok_docs) += 1;
        }
        const Json* id = doc.find("id");
        if (!id || !id->is_number() || id->as_int() != first + k) {
          why = "response id does not match the request";
        } else {
          why = check_result(pool[static_cast<std::size_t>(decks[ks])], doc);
        }
      } catch (const std::exception& e) {
        why = std::string("unparseable response: ") + e.what();
      }
    }
    if (why.empty()) {
      ++res.ok;
    } else {
      ++res.failed;
      if (res.failures.size() < 20) {
        res.failures.push_back(name + " request " + std::to_string(first + k) +
                               ": " + why);
      }
    }
  }
  res.latency = summarize(res.latency_ms);
  res.lag = summarize(res.lag_ms);
  res.active_s = static_cast<double>(last_done - t_start) * 1e-9;
  res.achieved_rps =
      static_cast<double>(res.completed) / std::max(1e-9, res.active_s);
  res.backlog = backlog_growth(res.slot_ms);
  res.server = scrape().minus(before);
  return res;
}

ServerSnap LoadGen::scrape() {
  Conn& c = *conns_.front();
  const long long deadline = now_ns() + 10000 * kMs;
  std::string line;
  if (!write_all(c.fd, "{\"type\":\"metrics\"}\n", deadline) ||
      !read_line(c.fd, c.in, &line, deadline)) {
    throw std::runtime_error("metrics request failed");
  }
  const Json doc = Json::parse(line);
  const Json& m = doc["metrics"];
  ServerSnap s;
  for (const char* fam : {"carbon_request_seconds", "carbon_requests_total"}) {
    const Json* f = m.find(fam);
    if (!f) continue;
    const Json& values = (*f)["values"];
    for (std::size_t i = 0; i < values.size(); ++i) {
      const Json& v = values.at(i);
      const Json* lab = v.find("labels");
      const std::string labels = lab ? lab->as_string() : "";
      if (std::strcmp(fam, "carbon_requests_total") == 0) {
        // labels: outcome="ok"
        const std::size_t q = labels.find('"');
        const std::string outcome =
            q == std::string::npos
                ? labels
                : labels.substr(q + 1, labels.rfind('"') - q - 1);
        s.outcomes[outcome] = static_cast<long>(v["value"].as_int());
      } else if (labels == "outcome=\"ok\"") {
        s.ok_count = static_cast<long>(v["count"].as_int());
        s.ok_sum_s = v["sum_s"].as_double();
        const Json& b = v["buckets"];
        for (std::size_t k = 0; k < b.size() && k < s.ok_buckets.size(); ++k) {
          s.ok_buckets[k] = static_cast<long>(b.at(k).as_int());
        }
      }
    }
  }
  return s;
}

}  // namespace perfbench
