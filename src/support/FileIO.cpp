//===- FileIO.cpp - Whole-file reads --------------------------------------===//
//
// Part of the Cut-Shortcut pointer analysis reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"

#include <cstdio>
#include <filesystem>

using namespace csc;

ReadStatus csc::readFile(const std::string &Path, std::string &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return ReadStatus::CannotOpen;
  // Only a regular file has a size; anything else is read in chunks.
  std::error_code EC;
  std::uintmax_t Size = std::filesystem::file_size(Path, EC);
  Out.resize(EC ? 0 : static_cast<size_t>(Size));
  Out.resize(std::fread(Out.data(), 1, Out.size(), F));
  char Chunk[1 << 12];
  while (!std::ferror(F) && !std::feof(F))
    Out.append(Chunk, std::fread(Chunk, 1, sizeof(Chunk), F));
  bool Failed = std::ferror(F) != 0;
  std::fclose(F);
  return Failed ? ReadStatus::CannotRead : ReadStatus::Ok;
}
