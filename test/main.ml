let () =
  Alcotest.run "cheri"
    (Test_cap.suites @ Test_isa.suites @ Test_machine.suites @ Test_mem.suites @ Test_asm.suites @ Test_os.suites
   @ Test_olden.suites @ Test_models.suites @ Test_minic.suites @ Test_fault.suites
   @ Test_obs.suites @ Test_fuzz.suites @ Test_serve.suites @ Test_alloc.suites)
