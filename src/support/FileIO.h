//===- FileIO.h - Whole-file reads ------------------------------*- C++ -*-===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way this project reads a file into memory: sources, batch
/// manifests, store entries and the task ledger all go through readFile().
///
//===----------------------------------------------------------------------===//

#ifndef CSC_SUPPORT_FILEIO_H
#define CSC_SUPPORT_FILEIO_H

#include <string>

namespace csc {

enum class ReadStatus {
  Ok,
  CannotOpen, ///< Missing, or not permitted.
  CannotRead, ///< Opened, but a read failed (a directory, an I/O error).
};

/// Reads the whole file at \p Path into \p Out: one read sized by the
/// file's length, then whatever lies past it (a pipe has no length; a
/// file may grow). Anything but Ok leaves \p Out unspecified.
ReadStatus readFile(const std::string &Path, std::string &Out);

} // namespace csc

#endif // CSC_SUPPORT_FILEIO_H
