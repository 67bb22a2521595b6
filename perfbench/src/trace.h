// In-memory span recorder of the traced run. Spans are recorded by the
// benchmark around its own calls into the library's public functions, kept
// in memory, and written out once when the run ends. Single-threaded: rank
// threads time themselves and the main thread records their spans after
// joining them.
#pragma once

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  int id = 0;
  int parent = -1;   // -1 = root
  int call = 0;      // spans of one measured call share this id
  int threads = 1;   // pool size the span ran with
  std::string name;
  double start = 0.0;  // seconds since the tracer was created
  double end = 0.0;

  double seconds() const { return end - start; }
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  int add(std::string name, int parent, int call, int threads, double start,
          double end) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{id, parent, call, threads, std::move(name), start, end});
    return id;
  }
  int open(std::string name, int parent, int call, int threads) {
    const double t = now();
    return add(std::move(name), parent, call, threads, t, t);
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }

  // Closes its span when it goes out of scope, exceptions included.
  class Scope {
   public:
    Scope(Tracer& t, std::string name, int parent, int call, int threads)
        : t_(t), id_(t.open(std::move(name), parent, call, threads)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& t_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  const Span& span(int id) const { return spans_[static_cast<std::size_t>(id)]; }

  void write_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
