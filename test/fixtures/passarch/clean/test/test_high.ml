let () = assert (High.run 1 = 3)
